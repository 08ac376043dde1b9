import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cantornormal import (
    ArgumentError,
    ConstantSequence,
    CounterSpillError,
    PeriodicSequence,
    TableSequence,
    digit_at,
    digit_stream,
    generate_digits,
)
from cantornormal import generator
from cantornormal.ladder import PartitionIndex, block_from_index


def test_first_digits_constant2(c2):
    assert generate_digits(c2, 6).tolist() == [0, 1, 0, 1, 0, 1]


def test_digits_25_to_32(c2):
    d = generate_digits(c2, 32)
    assert d[24:32].tolist() == [0, 0, 0, 1, 1, 0, 1, 1]


def test_first_digits_periodic(p23):
    assert generate_digits(p23, 2).tolist() == [0, 0]


def test_digit_at_examples(c2, p23):
    assert digit_at(c2, 4) == 1
    assert digit_at(c2, 27) == 0
    assert digit_at(p23, 2) == 0


def test_stream_matches_bulk(c2, p23, iterated_log):
    for seq in (c2, p23, iterated_log):
        bulk = generate_digits(seq, 3000)
        streamed = list(itertools.islice(digit_stream(seq), 3000))
        assert bulk.tolist() == streamed


def test_oracle_matches_bulk_sampled(p23, iterated_log):
    for seq in (p23, iterated_log):
        pi = PartitionIndex(seq)
        bulk = generate_digits(seq, 1500)
        for n in range(1, 1501, 7):
            assert digit_at(seq, n, index=pi) == int(bulk[n - 1]), (seq, n)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([PeriodicSequence, TableSequence]),
       st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=5),
       st.integers(min_value=1, max_value=3000),
       st.data())
def test_three_routes_agree_on_random_sequences(kind, bases, count, data):
    seq = kind(bases)
    pi = PartitionIndex(seq)
    bulk = generate_digits(seq, count)
    assert list(itertools.islice(digit_stream(seq), count)) == bulk.tolist()
    for n in data.draw(st.lists(st.integers(min_value=1, max_value=count), max_size=8)) + [count]:
        assert digit_at(seq, n, index=pi) == int(bulk[n - 1]), (seq, n)


def test_digit_admissibility(iterated_log):
    d = generate_digits(iterated_log, 20000)
    b = iterated_log.bases(1, 20000)
    assert (d >= 0).all() and (d <= b - 1).all()
    # the maximal digit is avoided infinitely often: zeros recur by cycling
    assert (d[-1000:] == 0).any()


def test_cycling_completeness(c2, c2_index):
    d = generate_digits(c2, 10**5)
    for r in (2, 3):
        lo, hi = c2_index.region(r)
        nwin = (hi - lo) // r
        total = 2**r
        windows = d[lo:hi].reshape(nwin, r)
        for run_start in range(0, nwin - total + 1, total):
            run = windows[run_start : run_start + total]
            seen = {tuple(w) for w in run}
            assert len(seen) == total  # every block exactly once per run


def test_mixed_windows_cycle_separately(p23):
    # the length-1 region holds two distinct windows; each cycles on its own
    pi = PartitionIndex(p23)
    lo, hi = pi.region(1)
    d = generate_digits(p23, hi)
    for parity, base in ((0, 2), (1, 3)):
        positions = [n for n in range(lo + 1, hi + 1) if (n - 1) % 2 == parity]
        expected = [(k % base) for k in range(len(positions))]
        assert [int(d[n - 1]) for n in positions] == expected


def test_generate_count_validation(c2):
    with pytest.raises(ArgumentError):
        generate_digits(c2, -1)
    assert generate_digits(c2, 0).size == 0


def test_digit_stream_spills_at_the_second_distinct_window(monkeypatch, p23):
    # region 1 of periodic:2,3 opens with the windows (2,) and (3,): the
    # first one yields its digit, the second one is one past the limit 1
    monkeypatch.setattr(generator, "DEFAULT_SPILL_LIMIT", 1)
    lo, _ = PartitionIndex(p23).region(1)
    stream = digit_stream(p23)
    assert len(list(itertools.islice(stream, lo + 1))) == lo + 1
    with pytest.raises(CounterSpillError) as info:
        next(stream)
    assert str(info.value) == "more than 1 distinct base windows in one region"


@pytest.mark.parametrize("limit", [1, 2])
def test_both_routes_count_the_spill_limit_per_region(monkeypatch, c2, p23, limit):
    # constant:2 has one distinct window per region, so it never spills;
    # periodic:2,3 has two in region 1, one more than the limit 1
    monkeypatch.setattr(generator, "DEFAULT_SPILL_LIMIT", limit)
    assert list(itertools.islice(digit_stream(c2), 700)) == generate_digits(c2, 700).tolist()
    if limit == 1:
        with pytest.raises(CounterSpillError):
            generate_digits(p23, 700)
        with pytest.raises(CounterSpillError):
            list(itertools.islice(digit_stream(p23), 700))


def test_digit_at_refuses_an_index_of_another_sequence(c2, p23):
    with pytest.raises(ArgumentError, match="another sequence"):
        digit_at(c2, 1039, index=PartitionIndex(p23))
    assert digit_at(c2, 1039, index=PartitionIndex(ConstantSequence(2))) == digit_at(c2, 1039)


def test_stream_direct_window_walk_against_manual(c2):
    # manual replay of the first region: singleton windows cycling 0,1
    got = list(itertools.islice(digit_stream(c2), 24))
    assert got == [k % 2 for k in range(24)]


def test_digit_at_deep_position_matches_manual(c2, c2_index):
    # position 100000 sits in the length-7 region; replay the cyclic rule
    n = 100000
    r = c2_index.region_of(n)
    lo, _ = c2_index.region(r)
    j = (n - lo - 1) // r
    block = block_from_index([2] * r, j % 2**r + 1)
    assert digit_at(c2, n, index=c2_index) == block[(n - lo - 1) % r]
