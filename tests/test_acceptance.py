"""Acceptance suite.

Each test checks one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run pytest with -s to see them inline).
"""

import itertools
import time
from fractions import Fraction

import numpy as np

from cantornormal import (
    ConstantSequence,
    Schedule,
    build_orbit_sink,
    build_patched_uniform,
    constructed_digits,
    count_block_checkpoints,
    digit_at,
    digit_stream,
    orbit_discrepancy_report,
    expected_count,
    extreme_discrepancy,
    generate_digits,
    orbit_values,
    prefix_value,
    clip_digits,
    star_discrepancy,
    to_base_b,
    truncation_depth,
)
from cantornormal.kernels import match_mask
from cantornormal.ladder import PartitionIndex
from cantornormal.sequences import parse_sequence_spec

from orbit_oracles import orbit_truncated
from schedule_oracles import count_threshold_predicate, log_mass_predicate, segment_positions


def _report(num, label, ok, detail=""):
    line = f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


# -- 1: oracle equivalence ----------------------------------------------------

def test_criterion_01_oracle_equivalence():
    t0 = time.monotonic()
    specs = ("constant:2", "constant:10", "periodic:2,3", "preset:iterated-log")
    mismatches = 0
    for spec in specs:
        seq = parse_sequence_spec(spec)
        pi = PartitionIndex(seq)
        bulk = generate_digits(seq, 20000)
        streamed = np.fromiter(itertools.islice(digit_stream(seq), 20000), dtype=np.int64)
        mismatches += int((bulk != streamed).sum())
        positions = itertools.chain(range(1, 2001), range(2001, 20001, 37))
        for n in positions:
            if digit_at(seq, n, index=pi) != int(bulk[n - 1]):
                mismatches += 1
    elapsed = time.monotonic() - t0
    _report(
        1,
        "oracle equivalence",
        mismatches == 0 and elapsed < 60,
        f"{len(specs)} sequences, 20000 positions each, {elapsed:.1f}s",
    )


# -- 2: construction ladder ---------------------------------------------------

def test_criterion_02_construction_ladder(c2, c2_index):
    ok = all(c2_index.ladder_index(r) == 5**r for r in range(1, 9))
    ok &= tuple(c2_index.boundary(r) for r in (1, 2, 3, 4)) == (0, 24, 124, 622)
    # brute-force definitional scans
    for r in range(1, 9):
        top, n = 0, 0
        while True:
            n += 1
            top = max(top, c2.base_at(n))
            if (top * top + 1) ** r <= n:
                break
        ok &= n == c2_index.ladder_index(r)
    prev = 0
    for r in range(2, 5):
        m = c2_index.ladder_index(r) - 1
        while (m - prev) % (r - 1) != 0:
            m -= 1
        ok &= m == c2_index.boundary(r)
        prev = m
    _report(2, "construction ladder", ok, "ladder_index = 5**r, boundaries (0,24,124,622)")


# -- 3: cycling completeness --------------------------------------------------

def test_criterion_03_cycling_completeness(c2, c2_index):
    digits = generate_digits(c2, 10**5)
    ok = True
    checked = 0
    for r in (2, 3):
        lo, hi = c2_index.region(r)
        windows = digits[lo:hi].reshape((hi - lo) // r, r)
        cycle = 2**r
        for start in range(0, windows.shape[0] - cycle + 1, cycle):
            run = {tuple(w) for w in windows[start : start + cycle]}
            ok &= len(run) == cycle
            checked += 1
    _report(3, "cycling completeness", ok, f"{checked} full runs, lengths 2 and 3")


# -- 4: block-count convergence -----------------------------------------------

# Q-normality promises count / expected -> 1, not a smaller deviation at each
# sampled n: the deviation at one checkpoint depends on where it cuts the
# current block cycle. So the criterion takes the worst deviation over every n
# in a decade and asks that this envelope shrink from one decade to the next.

DECADES = (3, 4, 5, 6)


def _deviation_envelopes(E, block):
    """Counts of `block` at start positions <= n for n = 1..10**DECADES[-1],
    and the max of |count / (n / 2**k) - 1| over each decade [10**a, 10**(a+1)]."""
    top = 10 ** DECADES[-1]
    counts = np.cumsum(match_mask(E.prefix(top + len(block) - 1), block, top))
    n = np.arange(1, top + 1)
    dev = np.abs(counts * 2.0 ** len(block) / n - 1)
    return counts, [float(dev[10**a - 1 : 10 ** (a + 1)].max()) for a in DECADES[:-1]]


def test_criterion_04_block_count_trend(c2, c2_digits_1m):
    blocks = [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    envelopes = {}
    agree = True
    for b in blocks:
        counts, envelopes[b] = _deviation_envelopes(c2_digits_1m, b)
        for n in (10**a for a in DECADES):
            agree &= int(counts[n - 1]) == count_block_checkpoints(c2_digits_1m, b, [n])[0]
            agree &= expected_count(c2, b, n) == Fraction(n, 2 ** len(b))
    shrinking = all(
        all(later < earlier for earlier, later in zip(e, e[1:]))
        for e in envelopes.values()
    )
    final_len1 = max(envelopes[(0,)][-1], envelopes[(1,)][-1])
    detail = "; ".join(
        f"{''.join(map(str, b))}: [" + ", ".join(f"{v:.2e}" for v in envelopes[b]) + "]"
        for b in blocks
    )
    _report(
        4,
        "block-count convergence",
        agree and shrinking and final_len1 <= 0.02,
        f"len-1 dev over [1e5, 1e6] = {final_len1:.2e}; decade envelopes {detail}"
        + ("" if agree else "; dense counts disagree with count_block_checkpoints/expected_count"),
    )


# -- 5: orbit distribution trend ----------------------------------------------

def test_criterion_05_orbit_distribution(c2, c2_index):
    E = constructed_digits(c2)
    # certified deep evaluation (error <= 2**-24 per point)
    report = orbit_discrepancy_report(E, [10**3, 10**4, 10**5], depth=24)
    stars = [r.d_star for r in report.rows]
    eps_ok = all(r.max_eps <= 2**-24 for r in report.rows)
    # soundness of the default square-root truncation depth and its bound
    values, eps = orbit_values(E, 4000)
    for m in range(0, 4000, 211):
        eps_ok &= eps[m] <= 2.0 ** -truncation_depth(c2_index, m)
    ok = stars[0] > stars[1] > stars[2] and stars[2] <= 0.05 and eps_ok
    _report(
        5,
        "orbit distribution trend",
        ok,
        "D* = " + " > ".join(f"{v:.4f}" for v in stars) + "; eps <= 2^-24",
    )


# -- 6: discrepancy engine ----------------------------------------------------

def _brute_star(xs):
    n = xs.size
    best = 0.0
    for b in np.unique(np.concatenate((xs, [1.0]))):
        best = max(best, abs(float((xs < b).sum()) / n - b),
                   abs(float((xs <= b).sum()) / n - b))
    return best


def test_criterion_06_discrepancy_engine():
    rng = np.random.default_rng(20240917)
    ok = True
    for _ in range(100):
        xs = rng.random(int(rng.integers(1, 201)))
        d_star = star_discrepancy(xs)
        d = extreme_discrepancy(xs)
        ok &= abs(d_star - _brute_star(xs)) <= 1e-12
        ok &= d_star <= d + 1e-12 <= 2 * d_star + 2e-12
    for n in (1, 2, 5, 10, 64):
        grid = [Fraction(2 * i - 1, 2 * n) for i in range(1, n + 1)]
        ok &= star_discrepancy(grid) == Fraction(1, 2 * n)
    _report(6, "discrepancy engine", ok,
            "100 random samples vs brute force; midpoint grids exact")


# -- 7: clip-map laws ----------------------------------------------------------

def test_criterion_07_clip_laws():
    q3, q4 = ConstantSequence(3), ConstantSequence(4)
    x = constructed_digits(q3)
    same = clip_digits(x, q3)
    ok = (same.prefix(4000) == x.prefix(4000)).all()
    y = clip_digits(x, q4)
    ok &= (y.prefix(4000) <= x.prefix(4000)).all()
    worst = 0
    blocks = [(a,) for a in range(3)] + [
        (a, b) for a in range(3) for b in range(3)
    ]
    cps = [10**2, 10**3, 10**4]
    for blk in blocks:
        for a, b in zip(count_block_checkpoints(y, blk, cps),
                        count_block_checkpoints(x, blk, cps)):
            worst = max(worst, abs(a - b))
    ok &= worst == 0  # recorded constant: base 4 never clips digits below 3
    _report(7, "clip-map laws", ok, f"max count difference = {worst}")


# -- 8: orbit-sink witness ------------------------------------------------------

def test_criterion_08_orbit_sink(log_preset):
    y = build_orbit_sink(log_preset)
    values = []
    for n in (10**3, 10**4, 10**5):
        pt = orbit_truncated(y, n, depth=12)
        assert pt.eps <= Fraction(1, 2**24)
        values.append(float(pt.value))
    ok = values[0] > values[1] > values[2] and values[2] <= 0.25
    _report(8, "orbit-sink witness", ok,
            "orbit = " + " > ".join(f"{v:.4f}" for v in values))


# -- 9: patched uniform schedule -------------------------------------------------

def test_criterion_09_schedule(log_preset):
    x = build_patched_uniform(log_preset)
    sched: Schedule = x.schedule
    ok = True
    # minimality certificates
    for n in (1, 2, 3):
        t = sched.log_mass_threshold(n)
        ok &= log_mass_predicate(sched, n, t)
        ok &= not log_mass_predicate(sched, n, t - 1)
        for k in range(1, n + 1):
            u = sched.count_threshold(n, k)
            ok &= count_threshold_predicate(sched, n, k, u)
            ok &= u == 1 or not count_threshold_predicate(sched, n, k, u - 1)
        terms = sched.level_terms(n)
        ok &= sched.level(n) == max(terms.values()) >= terms["modulus"]
        ok &= sched.level(n) >= sched.level(n - 1) + n * n
        ok &= sched.level(n) >= sched.level(n - 1) + sched.log_mass_threshold(n)
        ok &= sched.level(n) >= max(sched.count_threshold(n, k) for k in range(1, n + 1))
    # density of the donor-patched set decreases
    N = 10**4
    segments = segment_positions(sched, N)
    density = [sum(1 for p in segments if p <= n) / n for n in (10**2, 10**3, 10**4)]
    ok &= density[0] > density[1] > density[2]
    # scaled digits equidistribute: discrepancy decreases along the ladder
    digits = x.prefix(N)
    q = log_preset.bases(1, N)
    scaled = digits / q
    disc = [star_discrepancy(scaled[:n]) for n in (10**2, 10**3, 10**4)]
    ok &= disc[0] > disc[1] > disc[2]
    # digits in range with zero clamp events
    ok &= bool((digits <= q - 1).all()) and sched.clamp_events == 0
    _report(
        9,
        "patched uniform schedule",
        ok,
        f"density {density[0]:.3f}>{density[1]:.4f}>{density[2]:.5f}; "
        f"D* {disc[0]:.3f}>{disc[1]:.3f}>{disc[2]:.3f}; clamps = {sched.clamp_events}",
    )


# -- 10: proven digit extraction -------------------------------------------------

def test_criterion_10_digit_extraction(c2):
    t0 = time.monotonic()
    digits = to_base_b(constructed_digits(c2), 10, 50)
    elapsed = time.monotonic() - t0
    lo = prefix_value(c2, constructed_digits(c2).prefix(800)).lower
    oracle = [int(ch) for ch in str(lo.numerator * 10**50 // lo.denominator).zfill(50)]
    ok = digits == oracle and elapsed < 5
    _report(10, "proven digit extraction", ok,
            f"50 digits in {elapsed * 1000:.0f}ms, equal to those of an 800-digit prefix")
