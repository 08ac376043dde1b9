import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantornormal import (
    ArgumentError,
    BasicSequence,
    ConstantSequence,
    PeriodicSequence,
    TableSequence,
    admissible_blocks,
    constructed_digits,
    count_block_checkpoints,
    expected_count,
    finite_digits,
    growth_diagnostic,
    normality_report,
)
from cantornormal.ladder import PartitionIndex
from cantornormal.stats import format_block

from stats_oracles import (
    admissible,
    array_admissible_blocks,
    array_expected_counts,
    starred_variants,
    window_end_positions,
)


def brute_expected(seq, block, n):
    total = Fraction(0)
    for i in range(1, n + 1):
        if all(d < seq.base_at(i + j) for j, d in enumerate(block)):
            den = math.prod(seq.base_at(i + j) for j in range(len(block)))
            total += Fraction(1, den)
    return total


def brute_count(digits, block, n):
    k = len(block)
    return sum(
        1
        for i in range(n)
        if list(digits[i : i + k]) == list(block)
    )


def test_admissible_examples(c2, p23):
    assert admissible(c2, [1], 5) == 1
    assert admissible(c2, [2], 1) == 0
    assert admissible(p23, [1, 2], 1) == 1
    assert admissible(p23, [1, 2], 2) == 0


def test_expected_count_examples(c2, p23):
    assert expected_count(c2, [0], 4) == 2
    assert expected_count(c2, [0, 1], 2) == Fraction(1, 2)
    assert expected_count(p23, [2], 4) == Fraction(2, 3)


def test_expected_count_brute(c2, p23, iterated_log):
    for seq in (c2, p23, iterated_log):
        for block in ([0], [1], [0, 1], [2], [1, 2, 0]):
            assert expected_count(seq, block, 300) == brute_expected(seq, block, 300)


def test_expected_count_refuses_int64_overflow():
    wide = ConstantSequence(70000)
    assert expected_count(wide, [0, 0, 0], 10) == Fraction(10, 70000**3)
    with pytest.raises(ArgumentError):
        expected_count(wide, [0, 0, 0, 0], 10)  # 70000**4 > 2**63


@pytest.mark.parametrize("seq", [ConstantSequence(2), PeriodicSequence([2, 3])])
def test_expected_count_of_a_digit_past_int64_is_zero(seq):
    assert expected_count(seq, (2**64,), 5) == 0


class HeadCycleSequence(BasicSequence):
    """A head of bases followed by a repeating cycle; no sequence kind has
    both a head and a cycle of more than one base."""

    def __init__(self, head, cycle):
        self.head, self.cycle = head, cycle

    def to_json(self) -> dict:
        return {"kind": "head-cycle", "head": self.head, "cycle": self.cycle}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 5), max_size=8), st.lists(st.integers(2, 5), min_size=1, max_size=5),
       st.integers(1, 3), st.data())
def test_head_cycle_classes_equal_the_array_oracle(head, cycle, k, data):
    # cycles may repeat a base, so several phases can share one window
    seq = HeadCycleSequence(head, cycle)
    h, p = len(head), len(cycle)
    # checkpoints inside the head, through the first cycle and past it
    cps = sorted(set(data.draw(st.lists(
        st.one_of(st.integers(1, h + p), st.integers(h + p + 1, h + 5 * p + 20)),
        min_size=1, max_size=4))))
    block = tuple(data.draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)))
    want = array_expected_counts(seq.bases(1, cps[-1] + k - 1), block, cps)
    assert [expected_count(seq, block, n) for n in cps] == want
    rows = growth_diagnostic(seq, block, cps).rows
    assert [r.value for r in rows] == [
        float(e) / (n * math.log(seq.running_max(n)) / math.log(n))
        for n, e in zip(cps, want) if n > 1
    ]
    for n in cps:
        assert admissible_blocks(seq, k, n) == array_admissible_blocks(
            seq.bases(1, n + k - 1), k, n)


def test_growth_diagnostic_past_int64(iterated_log, p23):
    # every pair of neighbouring bases is above (1, 1): (length - 1) pairs
    # inside each run of constant base, one across each run boundary
    n = 10**30
    runs = iterated_log.base_runs(1, n + 1)
    want = (sum(Fraction(b - a - 1, c * c) for a, b, c in runs)
            + sum(Fraction(1, c * d) for (_, _, c), (_, _, d) in zip(runs, runs[1:])))
    assert expected_count(iterated_log, (1, 1), n) == want
    rows = growth_diagnostic(iterated_log, (1, 1), [100, n]).rows
    assert rows[1].n == n
    assert rows[1].value == float(want) / (n * math.log(iterated_log.running_max(n)) / math.log(n))
    with pytest.raises(ArgumentError,
                       match=r"^a length of 10{29}1 is past what an int64 array can address$"):
        growth_diagnostic(p23, (1, 1), [100, n])


def test_growth_diagnostic_on_a_cycle_holds_no_length_n_array():
    tracemalloc.start()
    try:
        growth_diagnostic(PeriodicSequence([2, 3, 5]), (1, 1), [10**6, 10**7])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_expected_count_monotone(p23):
    values = [expected_count(p23, [1, 2], n) for n in range(1, 40)]
    assert all(b >= a for a, b in zip(values, values[1:]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([PeriodicSequence, TableSequence]),
       st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=3),
       st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4))
def test_admissible_blocks_and_checkpoint_sums(kind, pattern, k, checkpoints):
    seq = kind(pattern)
    n = max(checkpoints)
    # the enumeration: every candidate below the largest base with a nonzero
    # expected count, in product order
    top = int(seq.bases(1, n + k - 1).max())
    expect = [b for b in itertools.product(range(top), repeat=k) if expected_count(seq, b, n) > 0]
    blocks = admissible_blocks(seq, k, n)
    assert blocks == expect
    # one report over unsorted checkpoints with a duplicate and n = 1, mixed
    # block lengths and a never-admissible block, against per-checkpoint sums
    cps = checkpoints + [1, checkpoints[0]]
    mixed = admissible_blocks(seq, 1, n) + blocks + [(5,)]
    report = normality_report(constructed_digits(seq), mixed, cps)
    ns = sorted(set(cps))
    assert [(r.block, r.n) for r in report.rows] == [(b, m) for b in mixed for m in ns]
    for r in report.rows:
        assert r.expected == brute_expected(seq, r.block, r.n)
    growth = report.to_json()["expected_growth"]
    for b in mixed:
        expect = [brute_expected(seq, b, m) for m in ns]
        assert [Fraction(v) for v in growth[format_block(b)]] == expect


def test_count_block_examples(c2):
    digits = finite_digits(c2, [0, 1, 0, 1, 0, 1])
    assert count_block_checkpoints(digits, [0, 1], [4])[0] == 2
    assert count_block_checkpoints(finite_digits(c2, [0, 1, 0, 1]), [1, 1], [3])[0] == 0
    with pytest.raises(ArgumentError):
        count_block_checkpoints(digits, [], [3])


def test_count_block_checkpoints_refuses_an_empty_list(c2):
    with pytest.raises(ArgumentError):
        count_block_checkpoints(finite_digits(c2, [0, 1]), [0], [])


def test_finite_digits_description_counts_the_digits(c2):
    # the description records how many digits there are, not a copy of them
    E = finite_digits(c2, [0, 1, 0, 1])
    assert E.description == {"op": "literal", "seq": c2.to_json(), "count": 4}


def test_count_block_needs_lookahead(c2):
    with pytest.raises(ArgumentError):
        count_block_checkpoints(finite_digits(c2, [0, 1, 0]), [0, 1], [3])  # position 4 missing


def test_count_block_checkpoints_matches_brute(c2):
    rng = np.random.default_rng(5)
    digits = rng.integers(0, 2, size=500)
    cps = [10, 99, 400]
    for block in ([0], [1, 0], [0, 0, 1]):
        got = count_block_checkpoints(finite_digits(c2, digits), block, cps)
        assert got == [brute_count(digits, block, n) for n in cps]


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=6, max_size=60),
       st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=3))
def test_count_increment_is_zero_or_one(digits, block):
    top = len(digits) - len(block)
    if top < 2:
        return
    E = finite_digits(ConstantSequence(2), digits)
    counts = count_block_checkpoints(E, block, range(1, top + 1))
    assert all(b - a in (0, 1) for a, b in zip(counts, counts[1:]))


def test_single_digit_counts_partition_positions(c2):
    E = constructed_digits(c2)
    n = 4096
    total = sum(count_block_checkpoints(E, [b], [n])[0] for b in (0, 1))
    assert total == n


def test_window_end_positions_match_regions(c2, p23, log_preset):
    # walk the windows one by one: each region r tiles (lo, hi] with
    # length-r windows, the first one starting at lo + 1
    n = 3000
    for seq in (c2, p23, log_preset):
        pi = PartitionIndex(seq)
        expect = []
        start = 1
        while start <= n:
            r = pi.region_of(start)
            lo, hi = pi.region(r)
            assert (start - lo - 1) % r == 0 and start + r - 1 <= hi
            expect += [start + r - 1] * r
            start += r
        assert window_end_positions(pi, n).tolist() == expect[:n]


def test_starred_examples(c2):
    E = constructed_digits(c2)
    assert starred_variants(E, [0], 24) == (Fraction(12), 12)
    assert starred_variants(E, [0, 1], 24) == (Fraction(0), 0)
    q_star, n_star = starred_variants(E, [0, 1], 124)
    assert q_star == Fraction(25, 2)
    # brute scan over the 50 length-2 windows
    digits = E.prefix(125)
    expect = sum(
        1
        for j in range(50)
        if digits[24 + 2 * j] == 0 and digits[25 + 2 * j] == 1
    )
    assert n_star == expect == 13


def test_starred_bounds(c2, c2_index):
    E = constructed_digits(c2)
    for block in ([0], [0, 1], [1, 1, 0]):
        k = len(block)
        for n in (24, 124, 622, 3122):
            q_star, n_star = starred_variants(E, block, n)
            q_full = expected_count(c2, block, n)
            n_full = count_block_checkpoints(E, block, [n])[0]
            assert q_star <= q_full
            assert n_star <= n_full
            # the gap is at most (straddling positions) * max window mass
            ends = window_end_positions(c2_index, n)
            straddling = sum(1 for i in range(1, n + 1) if i + k - 1 > ends[i - 1])
            assert q_full - q_star <= Fraction(straddling, 2**k)
            assert n_full - n_star <= straddling


def test_normality_report_exact_at_24(c2):
    E = constructed_digits(c2)
    report = normality_report(E, [[0], [1]], [24])
    ratios = {tuple(r.block): r.ratio for r in report.rows}
    assert ratios == {(0,): 1.0, (1,): 1.0}
    assert report.to_json()["pairs"] == [{"block_a": [0], "block_b": [1], "n": 24, "ratio": 1.0}]


def test_normality_report_near_one_at_1e5(c2_digits_1m):
    report = normality_report(c2_digits_1m, [[0]], [10**5])
    assert 0.98 <= report.rows[0].ratio <= 1.02


def test_normality_report_absent_block(c2):
    zeros = finite_digits(c2, [0] * 101)
    report = normality_report(zeros, [[1]], [100])
    assert report.rows[0].observed == 0
    assert report.rows[0].ratio == 0.0


def test_normality_report_undefined_ratio(p23):
    # a block admissible only at even positions has zero expected count at n=1
    E = finite_digits(p23, [0, 2, 0, 2, 0])
    report = normality_report(E, [[2]], [1, 4])
    assert report.rows[0].ratio is None
    assert report.rows[1].ratio is not None


def test_growth_diagnostic_examples(c2, p23):
    diag = growth_diagnostic(c2, [0], [100, 1000, 10000])
    assert diag.increasing
    # exact evaluation: (n/2) / (n log 2 / log n) = log n / (2 log 2)
    for row in diag.rows:
        assert row.value == pytest.approx(math.log(row.n) / (2 * math.log(2)))
    assert growth_diagnostic(c2, [0, 0], [100, 1000]).increasing
    assert growth_diagnostic(p23, [2], [100, 1000]).increasing
    assert growth_diagnostic(c2, [0], [1, 100]).rows[0].n == 100  # n=1 skipped
    # one row, or none, is no trend
    assert not growth_diagnostic(c2, [0], [1, 100]).increasing
    assert not growth_diagnostic(c2, [0], [1]).increasing
    assert diag.label == "heuristic"
