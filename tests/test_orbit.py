import contextlib
import itertools
import math
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantornormal import (
    ArgumentError,
    ConstantSequence,
    IndexLogSequence,
    InsufficientDigitsError,
    PeriodicSequence,
    PointwiseSequence,
    PresetSequence,
    TableSequence,
    build_orbit_sink,
    constructed_digits,
    orbit_discrepancy_report,
    extreme_discrepancy,
    finite_digits,
    orbit_values,
    parse_sequence_spec,
    star_discrepancy,
    truncation_depth,
)
from cantornormal import orbit
from cantornormal.kernels import orbit_numbers
from cantornormal.ladder import PartitionIndex

from orbit_oracles import orbit_exact_finite, orbit_truncated


def brute_star(values):
    """Sup over prefixes [0, b) by checking both one-sided limits at every
    sample value."""
    xs = np.asarray(values, dtype=np.float64)
    n = xs.size
    best = 0.0
    for b in np.unique(np.concatenate((xs, [1.0]))):
        below = float((xs < b).sum()) / n
        at_or_below = float((xs <= b).sum()) / n
        best = max(best, abs(below - b), abs(at_or_below - b))
    return best


def brute_extreme(values):
    """Sup over intervals [a, b) via all endpoint pairs and their one-sided
    limits; quadratic in the sample size."""
    xs = np.asarray(values, dtype=np.float64)
    n = xs.size
    candidates = np.unique(np.concatenate((xs, [0.0, 1.0])))
    best = 0.0
    for ai, a in enumerate(candidates):
        for b in candidates[ai:]:
            length = b - a
            for count in (
                ((xs >= a) & (xs < b)).sum(),
                ((xs > a) & (xs < b)).sum(),
                ((xs >= a) & (xs <= b)).sum(),
                ((xs > a) & (xs <= b)).sum(),
            ):
                best = max(best, abs(count / n - length))
    return best


def test_star_examples():
    assert star_discrepancy([Fraction(1, 2)]) == Fraction(1, 2)
    assert star_discrepancy([Fraction(0), Fraction(1, 2)]) == Fraction(1, 2)
    grid = [Fraction(2 * i - 1, 20) for i in range(1, 11)]
    assert star_discrepancy(grid) == Fraction(1, 20)


def test_extreme_examples():
    assert extreme_discrepancy([Fraction(0)]) == 1
    assert extreme_discrepancy([Fraction(0), Fraction(1, 2)]) == Fraction(1, 2)


@pytest.mark.parametrize("n", [1, 2, 7, 16, 101])
def test_midpoint_grid_exact(n):
    grid = [Fraction(2 * i - 1, 2 * n) for i in range(1, n + 1)]
    assert star_discrepancy(grid) == Fraction(1, 2 * n)
    assert extreme_discrepancy(grid) == Fraction(1, n)


def test_float_and_exact_paths_agree():
    rng = np.random.default_rng(2)
    xs = rng.random(64)
    exact = [Fraction(x).limit_denominator(10**9) for x in xs]
    floats = np.array([float(v) for v in exact])
    assert star_discrepancy(floats) == pytest.approx(float(star_discrepancy(exact)), abs=1e-12)
    assert extreme_discrepancy(floats) == pytest.approx(
        float(extreme_discrepancy(exact)), abs=1e-12
    )


def test_star_matches_brute_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        xs = rng.random(rng.integers(1, 120))
        assert star_discrepancy(xs) == pytest.approx(brute_star(xs), abs=1e-12)


def test_extreme_matches_brute_random():
    rng = np.random.default_rng(43)
    for _ in range(20):
        xs = rng.random(rng.integers(1, 60))
        assert extreme_discrepancy(xs) == pytest.approx(brute_extreme(xs), abs=1e-12)


@settings(max_examples=80)
@given(st.lists(st.floats(min_value=0, max_value=0.999999), min_size=1, max_size=50))
def test_star_vs_extreme_sandwich(xs):
    arr = np.asarray(xs)
    d_star = star_discrepancy(arr)
    d = extreme_discrepancy(arr)
    assert d_star <= d + 1e-12
    assert d <= 2 * d_star + 1e-12


@pytest.mark.parametrize("fn", [star_discrepancy, extreme_discrepancy])
def test_discrepancy_reads_any_iterable_once(fn):
    floats = [0.5, 0.25, 0.875]
    expect = fn(floats)
    assert fn(x for x in floats) == expect
    assert fn(np.asarray(floats)) == expect
    exact = [Fraction(1, 2), Fraction(1, 4), Fraction(7, 8)]
    got = fn(x for x in exact)
    assert isinstance(got, Fraction) and got == fn(exact) == pytest.approx(expect)


def test_sample_domain_validated():
    with pytest.raises(ArgumentError):
        star_discrepancy(np.array([0.5, 1.0]))
    with pytest.raises(ArgumentError):
        extreme_discrepancy([Fraction(3, 2)])
    with pytest.raises(ArgumentError):
        star_discrepancy(np.array([]))


def test_orbit_point_examples(c2, c2_index):
    E = constructed_digits(c2)
    p0 = orbit_truncated(E, 0, depth=1)
    assert (p0.value, p0.eps) == (Fraction(0), Fraction(1, 2))
    ones = finite_digits(c2, [1] * 8)
    p3 = orbit_truncated(ones, 3, depth=2)
    assert (p3.value, p3.eps) == (Fraction(3, 4), Fraction(1, 4))
    # default depth at 200: window length 3, depth 1
    assert c2_index.region_of(200) == 3
    assert truncation_depth(c2_index, 200) == 1
    p200 = orbit_truncated(E, 200)
    assert p200.value == Fraction(int(E.digit(201)), 2)
    assert p200.eps == Fraction(1, 2)


def test_orbit_eps_bound(c2, c2_index):
    E = constructed_digits(c2)
    for m in (0, 5, 30, 200, 700, 5000):
        d = truncation_depth(c2_index, m)
        pt = orbit_truncated(E, m)
        assert pt.eps <= Fraction(1, 2**d)


def test_truncation_soundness(c2):
    E = constructed_digits(c2)
    rng = np.random.default_rng(9)
    for m in rng.integers(0, 5000, size=40):
        shallow = orbit_truncated(E, int(m))
        deep = orbit_truncated(E, int(m), depth=24)
        assert abs(shallow.value - deep.value) <= shallow.eps


def test_orbit_values_bulk_matches_single(c2):
    E = constructed_digits(c2)
    values, eps = orbit_values(E, 400)
    for m in range(0, 400, 17):
        pt = orbit_truncated(E, m)
        assert values[m] == pytest.approx(float(pt.value), abs=1e-15)
        assert eps[m] == pytest.approx(float(pt.eps), abs=1e-15)


def test_orbit_exact_examples(c2):
    assert orbit_exact_finite(c2, Fraction(1, 3), 1) == Fraction(2, 3)
    assert orbit_exact_finite(c2, Fraction(1, 3), 2) == Fraction(1, 3)
    assert orbit_exact_finite(c2, [1], 1) == 0


def mod1_scale(x: Fraction, factors) -> Fraction:
    """x times the product of the factors, reduced mod 1: the orbit value
    orbit_exact_finite reaches by another route."""
    y = Fraction(x)
    for q in factors:
        y *= int(q)
    return y % 1


def test_mod1_scale_examples(c2):
    assert mod1_scale(Fraction(1, 3), [2]) == Fraction(2, 3)
    assert mod1_scale(Fraction(1, 3), [2, 2]) == Fraction(1, 3)
    assert mod1_scale(Fraction(5, 6), [2, 3]) == 0


def test_mod1_matches_orbit_exact(p23):
    x = Fraction(7, 36)
    for m in range(4):
        factors = [p23.base_at(i) for i in range(1, m + 1)]
        assert mod1_scale(x, factors) == orbit_exact_finite(p23, x, m)


def test_discrepancy_report_all_zero_digits(c2):
    zeros = finite_digits(c2, [0] * 130)
    report = orbit_discrepancy_report(zeros, [100], depth=3)
    assert report.rows[0].d_star >= 1 - 1 / 100
    assert report.rows[0].d_extreme >= 1 - 1 / 100


def test_discrepancy_report_decreasing_for_construction(c2):
    E = constructed_digits(c2)
    report = orbit_discrepancy_report(E, [10**3, 10**4], depth=20)
    d = [r.d_star for r in report.rows]
    assert d[1] < d[0]
    assert all(r.max_eps <= 2**-20 for r in report.rows)


def test_discrepancy_report_orbit_sink_stays_biased(log_preset):
    y = build_orbit_sink(log_preset)
    report = orbit_discrepancy_report(y, [10**4], depth=6)
    # orbit values crowd near 0, so the discrepancy stays large
    assert report.rows[0].d_star > 0.5


# reference two-sort float formulas, which the one-sort helper must equal bit for bit

def _star_reference(values):
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = xs.size
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    return float(max((grid - xs).max(), (xs - grid + 1.0 / n).max()))


def _extreme_reference(values):
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = xs.size
    diffs = np.arange(1, n + 1, dtype=np.float64) / n - xs
    return float(1.0 / n + diffs.max() - diffs.min())


_BELOW_ONE = float(np.nextafter(1.0, 0.0))
_unit_floats = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.sampled_from([0.0, 0.5, 1 / 3, _BELOW_ONE]),
    st.integers(min_value=0, max_value=7).map(lambda k: k / 8),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_unit_floats, min_size=1, max_size=60))
def test_one_sort_discrepancies_equal_two_sort_formulas(xs):
    for sample in (xs, np.asarray(xs)):
        assert star_discrepancy(sample) == _star_reference(xs)
        assert extreme_discrepancy(sample) == _extreme_reference(xs)


def _discrepancies_unblocked(xs):
    """The discrepancy tail in one full-length pass: d_i = i/N - x_(i)."""
    xs = np.sort(np.asarray(xs, dtype=np.float64))
    n = xs.size
    diffs = np.arange(1, n + 1, dtype=np.float64)
    diffs /= n
    diffs -= xs
    low, high = diffs.min(), diffs.max()
    return float(max(high, 1.0 / n - low)), float(1.0 / n + high - low)


@settings(max_examples=150, deadline=None)
@given(st.lists(_unit_floats, min_size=1, max_size=300), st.integers(min_value=1, max_value=300))
def test_blocked_discrepancy_tail_equals_one_full_length_pass(xs, chunk):
    want = _discrepancies_unblocked(xs)
    with mock.patch.object(orbit, "_ORBIT_CHUNK", chunk):
        got = star_discrepancy(np.asarray(xs)), extreme_discrepancy(np.asarray(xs))
        report = orbit_discrepancy_report(constructed_digits(ConstantSequence(2)),
                                          [len(xs), 1], depth=8)
    assert got == want  # bit for bit
    values, _ = orbit_values(constructed_digits(ConstantSequence(2)), len(xs), depth=8)
    assert [(r.d_star, r.d_extreme) for r in report.rows] == [
        _discrepancies_unblocked(values[:n]) for n in sorted({1, len(xs)})]


def test_report_rows_equal_two_sort_formulas(c2, log_preset):
    E = constructed_digits(c2)
    zeros = finite_digits(c2, [0] * 200)
    cases = [
        (E, 24),
        (E, 3),  # 8 distinct values: many ties
        (zeros, 2),  # every sample exactly 0.0
        (constructed_digits(log_preset), None),
    ]
    for stream, depth in cases:
        cps = [1, 2, 17, 100, 150] if stream is zeros else [1, 2, 17, 1000, 4096, 5000]
        report = orbit_discrepancy_report(stream, cps + [1], depth=depth)
        values, _ = orbit_values(stream, max(cps), depth=depth)
        assert [row.n for row in report.rows] == sorted(set(cps))
        for row in report.rows:
            assert row.d_star == _star_reference(values[: row.n])
            assert row.d_extreme == _extreme_reference(values[: row.n])


# a deep fixed depth at which every denominator still fits int64
_COUNTED_SEQUENCES = {"constant:2": 60, "constant:3": 38, "periodic:2,3": 47,
                      "periodic:3,2": 47}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(_COUNTED_SEQUENCES)),
    st.data(),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=800),
    # the share of random digits; the rest are the largest digit, whose
    # deep values round to 1.0 and are clamped just below it
    st.sampled_from([0.0, 0.05, 1.0]),
    st.integers(min_value=0, max_value=2**16),
)
def test_counted_report_equals_the_sorted_sample(spec, data, chunk, count, share, seed):
    seq = parse_sequence_spec(spec)
    deepest = _COUNTED_SEQUENCES[spec]
    depth = data.draw(st.one_of(st.none(), st.integers(1, deepest),
                                st.integers(deepest - 8, deepest)))  # past 53 bits
    # checkpoints on and off block edges, with 1, count and duplicates
    cps = data.draw(st.lists(st.one_of(
        st.integers(1, count), st.integers(1, max(1, count // chunk)).map(lambda k: k * chunk),
        st.just(1)), max_size=5)) + [count]
    cps += data.draw(st.lists(st.sampled_from(cps), max_size=2))
    count = max(cps)
    rng = np.random.default_rng(seed)
    bases = seq.bases(1, count + 60)
    digits = np.where(rng.random(bases.size) < share, rng.integers(0, bases), bases - 1)
    E = finite_digits(seq, digits)
    with mock.patch.object(orbit, "_ORBIT_CHUNK", chunk):
        report = orbit_discrepancy_report(E, cps, depth=depth)
    values, eps = orbit_values(E, count, depth=depth)
    assert [(r.n, r.d_star, r.d_extreme, r.max_eps) for r in report.rows] == [
        (n, *orbit._sorted_discrepancies(np.sort(values[:n])), float(eps[:n].max()))
        for n in sorted(set(cps))]  # bit for bit


@pytest.mark.parametrize("seq, depth", [(PresetSequence("iterated-log"), None),
                                        (ConstantSequence(2), 24)])
def test_counted_report_memory_does_not_grow_with_the_sample(seq, depth):
    count = 2 * 10**6
    E = constructed_digits(seq)
    E.prefix(count + 24)  # the digits are the input, not the report's memory
    tracemalloc.start()
    try:
        orbit_discrepancy_report(E, [1000, count], depth=depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a length-N float array alone takes 16 MB
    assert peak < 8 * 2**20


@pytest.mark.parametrize("seq", [PresetSequence("iterated-log"), PeriodicSequence([2, 3, 5]),
                                 TableSequence([3, 3, 2, 3, 3, 3])],
                         ids=["iterated-log", "periodic", "table"])
def test_report_reads_digits_a_block_at_a_time(seq):
    count = 2 * 10**6
    E = constructed_digits(seq)  # no digit read yet
    tracemalloc.start()
    try:
        orbit_discrepancy_report(E, [1000, count])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int64 prefix alone takes 16 MB
    assert peak < 4 * 2**20


def test_report_refuses_a_short_stream_before_reading_a_block(p23):
    count, depth = 5000, 3
    E = finite_digits(p23, [0] * (count + depth - 2))  # one digit short
    with pytest.raises(InsufficientDigitsError) as want:
        E.prefix(count - 1 + depth)
    with mock.patch.object(orbit, "_block_groups", side_effect=AssertionError("a block")):
        with pytest.raises(InsufficientDigitsError, match=re.escape(str(want.value))):
            orbit_discrepancy_report(E, [10, count], depth=depth)


def _orbit_values_unblocked(seq, digits, count, depth):
    """One orbit_numbers call per maximal index range of one depth, which
    reads the depth rule per m and knows no blocks, cuts or run route."""
    pi = PartitionIndex(seq)
    per_m = [truncation_depth(pi, m) if depth is None else depth for m in range(count)]
    num, den, lo = [], [], 0
    for d, run in itertools.groupby(per_m):
        hi = lo + len(list(run))
        got = orbit_numbers(np.asarray(digits)[lo:hi - 1 + d], seq.bases(lo + 1, hi - 1 + d), d)
        num.append(got[0])
        den.append(got[1])
        lo = hi
    num, den = np.concatenate(num), np.concatenate(den)
    return num / den, 1.0 / den


def _block_test_sequence(kind, rng, top):
    if kind == "periodic":
        return PeriodicSequence(rng.integers(2, top + 1, size=int(rng.integers(1, 6))).tolist())
    if kind == "table":
        return TableSequence(rng.integers(2, top + 1, size=int(rng.integers(1, 40))).tolist())
    return PresetSequence("log")


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["periodic", "table", "preset"]),
    # all-2 bases reach window length 4, so default depth 2, at m = 622
    st.sampled_from([2, 9]),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=1000),
    st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    st.integers(min_value=0, max_value=2**16),
)
def test_orbit_values_blocks_match_one_unblocked_call(kind, top, chunk, count, depth, seed):
    rng = np.random.default_rng(seed)
    seq = _block_test_sequence(kind, rng, top)
    size = count + 12  # at least the deepest read of any case
    digits = rng.integers(0, seq.bases(1, size))
    E = finite_digits(seq, digits)
    want = _orbit_values_unblocked(seq, digits, count, depth)
    with mock.patch.object(orbit, "_ORBIT_CHUNK", chunk):
        got = orbit_values(E, count, depth=depth)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=700),
    st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
)
def test_orbit_values_guards_hold_in_every_block(chunk, count, depth):
    with mock.patch.object(orbit, "_ORBIT_CHUNK", chunk):
        # bases reach 2**60 only past the reads of every block but the last,
        # whose last point then spans more than 61.5 bits
        last_lo = (count - 1) // chunk * chunk
        wide = TableSequence([2] * (last_lo + 10) + [2**60])
        with pytest.raises(ArgumentError, match="int64 denominators"):
            orbit_values(finite_digits(wide, [0] * (count + 11)), count, depth=11)
        with pytest.raises(ArgumentError, match="int64 denominators"):
            _orbit_values_unblocked(wide, np.zeros(count + 11, dtype=np.int64), count, 11)

        # a finite stream one digit short of the deepest read is refused
        seq = PeriodicSequence([2, 3])
        last = truncation_depth(PartitionIndex(seq), count - 1) if depth is None else depth
        need = count - 1 + last
        orbit_values(finite_digits(seq, [0] * need), count, depth=depth)
        with pytest.raises(InsufficientDigitsError):
            orbit_values(finite_digits(seq, [0] * (need - 1)), count, depth=depth)


def _no_kernel():
    return mock.patch.object(orbit, "orbit_numbers", side_effect=AssertionError("kernel"))


@pytest.mark.parametrize("depth", [53, 54, 61])
def test_deep_orbit_values_stay_below_one(c2, depth):
    # on a stream of 1s every truncated value is 1 - 2**-depth, which rounds
    # to 1.0 past 53 bits; it is rounded down to the float below 1 instead
    ones = finite_digits(c2, [1] * 200)
    with _no_kernel():  # 2**depth <= 2**61: the run route
        values, eps = orbit_values(ones, 100, depth=depth)
    assert (values == np.nextafter(1.0, 0.0)).all()
    exact = orbit_truncated(ones, 99, depth=depth).value
    assert abs(Fraction(float(values[99])) - exact) <= Fraction(1, 2**53)
    assert (eps == 2.0**-depth).all()
    report = orbit_discrepancy_report(ones, [1, 100], depth=depth)
    assert [r.d_star for r in report.rows] == [1.0 - 2**-53] * 2


_RUN_SEQUENCES = [ConstantSequence(c) for c in range(2, 10)] + [
    PresetSequence("log"),
    PresetSequence("iterated-log"),
    IndexLogSequence(),
    PointwiseSequence(PresetSequence("log"), "half-of"),
    PointwiseSequence(PresetSequence("log"), "log-of", "2"),
]
# iterated-log's default depth steps from 1 to 2 at m = 9998
_RUN_TOP = 10_100


def _run_landmarks(seq, depth):
    """Orbit indices where a block edge meets a run start (the point that
    first reads it, and the points whose reads end just before it), and
    where it meets a depth step (the first point of each new depth)."""
    starts = [start - 1 - k for start, _, _ in seq.base_runs(2, _RUN_TOP) for k in range(13)]
    steps = []
    if depth is None:
        bounds = PartitionIndex(seq).boundaries_through(_RUN_TOP)
        steps = [b + 1 for r, b in enumerate(bounds[1:], start=1)
                 if math.isqrt(r + 1) > math.isqrt(r)]
    return [marks for marks in ([m for m in starts if m >= 1], steps) if marks]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_RUN_SEQUENCES),
    st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
    st.data(),
)
def test_orbit_run_route_matches_kernel_oracle(seq, depth, data):
    kinds = _run_landmarks(seq, depth)
    mark = data.draw(st.sampled_from(data.draw(st.sampled_from(kinds)))) if kinds else \
        data.draw(st.integers(1, 2000))
    # a chunk dividing the mark puts a block edge on it; count = mark puts the
    # last edge there; at most ~500 blocks keep each example quick
    divisors = [k for k in range(1, 301) if mark % k == 0 and mark // k <= 500]
    chunk = data.draw(st.one_of(
        st.sampled_from(divisors or [300]), st.integers(max(1, mark // 500), 300)))
    count = data.draw(st.one_of(
        st.just(mark), st.just(mark + chunk),
        st.integers(max(1, mark - 2 * chunk), mark + 2 * chunk)))
    last = truncation_depth(PartitionIndex(seq), count - 1) if depth is None else depth
    rng = np.random.default_rng(count * 1000 + chunk)
    digits = rng.integers(0, seq.bases(1, count - 1 + last))
    E = finite_digits(seq, digits)
    want = _orbit_values_unblocked(seq, digits, count, depth)
    with mock.patch.object(orbit, "_ORBIT_CHUNK", chunk):
        got = orbit_values(E, count, depth=depth)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_orbit_run_route_skips_the_kernel():
    # all 200 points of iterated-log read base 2 (base 3 starts at 252) at depth 1
    for seq, count, depth in ((ConstantSequence(2), 5000, 24),
                              (PresetSequence("iterated-log"), 200, None)):
        E = constructed_digits(seq)
        want = _orbit_values_unblocked(seq, E.prefix(count + 24), count, depth)
        with _no_kernel():
            got = orbit_values(E, count, depth=depth)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("seq, count, step", [
    (ConstantSequence(2), 700, 623),  # depth 1 to 2
    (PeriodicSequence([2, 3]), 10_100, 10_000),  # depth 1 to 2, not nondecreasing
])
def test_orbit_block_is_cut_at_a_depth_step(seq, count, step):
    pi = PartitionIndex(seq)
    assert truncation_depth(pi, step - 1) < truncation_depth(pi, step)
    E = constructed_digits(seq)
    want = _orbit_values_unblocked(seq, E.prefix(count + 2), count, None)
    with mock.patch.object(orbit, "orbit_numbers", wraps=orbit_numbers) as kernel:
        got = orbit_values(E, count, depth=None)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    if seq.nondecreasing:  # one base on each side of the step: two run-route blocks
        assert kernel.call_count == 0
    else:  # two kernel blocks, each of one depth
        assert [(c.args[0].size - c.args[2] + 1, c.args[2]) for c in kernel.call_args_list] == [
            (step, 1), (count - step, 2)]


@pytest.mark.parametrize("seq, count, depth", [
    (PresetSequence("iterated-log"), 300, None),  # base 2 to 3 at position 252
    (PresetSequence("iterated-log"), 250, 3),  # the last point reads position 252
])
def test_orbit_block_across_a_base_step_takes_the_kernel(seq, count, depth):
    E = constructed_digits(seq)
    want = _orbit_values_unblocked(seq, E.prefix(count + 3), count, depth)
    with mock.patch.object(orbit, "orbit_numbers", wraps=orbit_numbers) as kernel:
        got = orbit_values(E, count, depth=depth)
    assert kernel.call_count == 1
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("seq, ok, wide", [
    (ConstantSequence(2), 61, 62),
    (ConstantSequence(3), 38, 39),
    (ConstantSequence(2**60), 1, 2),
    (TableSequence([2**60]), 1, 2),  # not nondecreasing: the kernel's own edge
])
def test_orbit_run_route_int64_edges_match_kernel(seq, ok, wide):
    count = 300
    ones = np.ones(count + wide, dtype=np.int64)
    E = finite_digits(seq, ones)
    want = _orbit_values_unblocked(seq, ones, count, ok)
    with _no_kernel() if seq.nondecreasing else contextlib.nullcontext():
        got = orbit_values(E, count, depth=ok)
    assert np.array_equal(got[0], np.minimum(want[0], _BELOW_ONE))
    assert np.array_equal(got[1], want[1])
    message = "truncation depth too large for int64 denominators"
    with pytest.raises(ArgumentError, match=message):
        orbit_values(E, count, depth=wide)
    with pytest.raises(ArgumentError, match=message):
        _orbit_values_unblocked(seq, ones, count, wide)


@pytest.mark.parametrize("fn", [star_discrepancy, extreme_discrepancy])
@pytest.mark.parametrize("sample", [[0.5, math.nan], [math.nan], [0.25, math.nan, 0.75]])
def test_nan_samples_are_refused(fn, sample):
    for values in (sample, np.asarray(sample)):
        with pytest.raises(ArgumentError, match=r"samples must lie in \[0, 1\)"):
            fn(values)
