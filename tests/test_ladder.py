import itertools

import pytest

from cantornormal import (
    ArgumentError,
    ConstantSequence,
    PeriodicSequence,
    ScanBoundError,
    TableSequence,
    block_from_index,
)
from cantornormal import ladder
from cantornormal.ladder import PartitionIndex


def brute_ladder_index(seq, r, limit=500_000):
    """Definitional scan: smallest n with (running_max(n)**2 + 1)**r <= n."""
    top = 0
    for n in range(1, limit + 1):
        top = max(top, seq.base_at(n))
        if (top * top + 1) ** r <= n:
            return n
    raise AssertionError("not found")


def brute_boundary(seq, r, index):
    """Definitional boundary: greatest value below n_{r} congruent to the
    previous boundary mod r-1 (r >= 2)."""
    if r == 1:
        return 0
    prev = brute_boundary(seq, r - 1, index)
    n_next = index.ladder_index(r)
    m = n_next - 1
    while (m - prev) % (r - 1) != 0:
        m -= 1
    return m


def test_ladder_constant2_brute(c2, c2_index):
    for r in range(1, 9):
        assert c2_index.ladder_index(r) == 5**r
    assert c2_index.ladder_index(4) == brute_ladder_index(c2, 4)
    for r, expect in ((1, 0), (2, 24), (3, 124), (4, 622)):
        assert c2_index.boundary(r) == expect
        assert c2_index.boundary(r) == brute_boundary(c2, r, c2_index)


def test_ladder_periodic_brute(p23):
    pi = PartitionIndex(p23)
    assert pi.ladder_index(2) == 100
    for r in (1, 2, 3):
        assert pi.ladder_index(r) == brute_ladder_index(p23, r)
        assert pi.boundary(r) == brute_boundary(p23, r, pi)


def test_ladder_iterated_log_brute(iterated_log):
    pi = PartitionIndex(iterated_log)
    for r in (1, 2, 3, 4):
        assert pi.ladder_index(r) == brute_ladder_index(iterated_log, r)


def test_ladder_minimality_invariant(c2, p23, iterated_log):
    for seq in (c2, p23, iterated_log):
        pi = PartitionIndex(seq)
        for r in range(1, 5):
            n = pi.ladder_index(r)
            q = seq.running_max(n)
            assert (q * q + 1) ** r <= n
            if n > 1:
                qprev = seq.running_max(n - 1)
                assert (qprev * qprev + 1) ** r > n - 1


def test_ladder_growth_ratio(c2, p23, log_preset, iterated_log):
    # exact factor b**2 + 1 for constant bases, at least 5 on the presets
    pi = PartitionIndex(c2)
    for r in range(2, 8):
        assert pi.ladder_index(r) == (2 * 2 + 1) * pi.ladder_index(r - 1)
    # depth capped where the ladder index stays below the default scan bound
    for seq, max_r in ((p23, 4), (log_preset, 3), (iterated_log, 4)):
        pi = PartitionIndex(seq)
        for r in range(2, max_r + 1):
            assert pi.ladder_index(r) >= 5 * pi.ladder_index(r - 1)


def test_boundary_divisibility(c2_index, iterated_log):
    for pi in (c2_index, PartitionIndex(iterated_log)):
        for r in range(1, 6):
            lo, hi = pi.region(r)
            assert (hi - lo) % r == 0
            assert hi < pi.ladder_index(r + 1)


def test_scan_bound_error(monkeypatch):
    monkeypatch.setattr(ladder, "DEFAULT_SCAN_BOUND", 10)
    pi = PartitionIndex(ConstantSequence(2))
    assert pi.ladder_index(1) == 5
    with pytest.raises(ScanBoundError):
        pi.ladder_index(2)


@pytest.mark.parametrize("kind", [PeriodicSequence, TableSequence])
def test_ladder_scan_is_exact_past_int64(kind):
    # (q*q + 1)**r is about 2**63 already at r = 1; an int64 running max
    # wrapped it to a negative threshold and accepted n = 1
    with pytest.raises(ScanBoundError):
        PartitionIndex(kind([3037000500, 2])).ladder_index(1)


def test_region_of_examples(c2_index):
    assert c2_index.region_of(1) == 1
    assert c2_index.region_of(24) == 1
    assert c2_index.region_of(30) == 2
    assert c2_index.region_of(124) == 2
    assert c2_index.region_of(125) == 3
    with pytest.raises(ArgumentError):
        c2_index.region_of(0)


def test_region_of_partitions_positions(p23, iterated_log):
    for seq in (p23, iterated_log):
        pi = PartitionIndex(seq)
        for n in range(1, 2000):
            r = pi.region_of(n)
            lo, hi = pi.region(r)
            assert lo < n <= hi


def test_block_enumeration_examples():
    assert block_from_index([2, 2], 1) == (0, 0)
    assert block_from_index([2, 2], 2) == (0, 1)
    assert block_from_index([2, 3], 6) == (1, 2)


def test_block_enumeration_is_sorted_lexicographically():
    radices = [2, 3, 2]
    blocks = [block_from_index(radices, i) for i in range(1, 13)]
    assert blocks == sorted(blocks)
    assert blocks[0] == (0, 0, 0)
    assert blocks[-1] == (1, 2, 1)


def test_block_index_errors():
    with pytest.raises(ArgumentError):
        block_from_index([2, 2], 0)
    with pytest.raises(ArgumentError):
        block_from_index([2, 2], 5)


def test_block_index_bijection():
    # every radix list of length 1..3 over bases 2..4: ordinals 1..prod run
    # through the blocks below the radices in lexicographic order
    for length in (1, 2, 3):
        for radices in itertools.product(range(2, 5), repeat=length):
            blocks = list(itertools.product(*map(range, radices)))
            assert [block_from_index(radices, i) for i in range(1, len(blocks) + 1)] == blocks
            for outside in (0, len(blocks) + 1):
                with pytest.raises(ArgumentError):
                    block_from_index(radices, outside)
