import itertools
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantornormal import (
    ArgumentError,
    BasicSequence,
    CounterSpillError,
    ConstantSequence,
    IndexLogSequence,
    PeriodicSequence,
    PointwiseSequence,
    PresetSequence,
    ScanBoundError,
    TableSequence,
    admissible_blocks,
    expected_count,
    generate_digits,
    parse_sequence_spec,
    sequence_from_json,
)
from cantornormal import generator
from cantornormal.generator import region_decode
from cantornormal.kernels import region_digits
from cantornormal.ladder import PartitionIndex
from cantornormal.sequences import floor_log, level_start
from cantornormal.stats import _expected_counts

from stats_oracles import array_expected_counts


def test_constant_base_at():
    assert ConstantSequence(2).base_at(7) == 2


def test_periodic_base_at():
    assert PeriodicSequence([2, 3]).base_at(4) == 3


def test_iterated_log_small_index():
    # floor(log2(log2(14))) = 1, clamped up to 2
    assert PresetSequence("iterated-log").base_at(10) == 2


def test_base_lower_bound_rejected():
    with pytest.raises(ArgumentError):
        ConstantSequence(1)
    with pytest.raises(ArgumentError):
        PeriodicSequence([2, 1])


def test_position_validation():
    with pytest.raises(ArgumentError):
        ConstantSequence(2).base_at(0)
    with pytest.raises(ArgumentError):
        PresetSequence("log").base_at(-3)


def test_running_max_examples():
    s = PeriodicSequence([2, 5, 3])
    assert s.running_max(1) == 2
    assert s.running_max(3) == 5
    assert ConstantSequence(10).running_max(10**6) == 10


def test_running_max_monotone():
    s = PeriodicSequence([4, 2, 9, 3])
    values = [s.running_max(n) for n in range(1, 30)]
    assert values == sorted(values)
    brute = []
    top = 0
    for n in range(1, 30):
        top = max(top, s.base_at(n))
        brute.append(top)
    assert values == brute


@pytest.mark.parametrize("name", ["log", "iterated-log"])
def test_preset_bulk_matches_scalar(name):
    s = PresetSequence(name)
    lo, hi = 1, 5000
    assert s.bases(lo, hi).tolist() == [s.base_at(n) for n in range(lo, hi + 1)]
    # spot-check big positions too
    for n in (10**6, 10**7):
        assert s.bases(n, n)[0] == s.base_at(n)


def test_iterated_log_growth_envelope():
    s = PresetSequence("iterated-log")
    ns = np.unique(np.logspace(0, 7, 200).astype(np.int64))
    q = np.array([s.running_max(int(n)) for n in ns], dtype=np.float64)
    envelope = np.log2(np.log2(ns + 4)) + 2
    assert (q <= envelope).all()
    assert s.base_at(10**7) > s.base_at(1)  # unbounded in the limit


def test_index_log_values():
    s = IndexLogSequence()
    assert [s.base_at(i) for i in range(1, 9)] == [2, 2, 3, 3, 3, 3, 3, 4]
    assert s.bases(1, 64).tolist() == [s.base_at(i) for i in range(1, 65)]


def test_pointwise_ops():
    assert PointwiseSequence(ConstantSequence(4), "half-of").base_at(1) == 2
    assert PointwiseSequence(ConstantSequence(9), "half-of").base_at(5) == 4
    # natural log: floor(log 9) = 2
    assert PointwiseSequence(ConstantSequence(9), "log-of").base_at(1) == 2
    assert PointwiseSequence(ConstantSequence(9), "log-of", "2").base_at(1) == 3


def test_table_extension():
    s = TableSequence([3, 4, 2])
    assert [s.base_at(n) for n in (1, 2, 3, 4, 99)] == [3, 4, 2, 2, 2]
    assert s.running_max(99) == 4
    assert s.bases(2, 6).tolist() == [4, 2, 2, 2, 2]
    assert s.bases(1, -1).tolist() == []


def test_json_round_trip():
    for s in (
        ConstantSequence(5),
        PeriodicSequence([2, 3, 7]),
        TableSequence([2, 9]),
        PresetSequence("log"),
        IndexLogSequence("2"),
        PointwiseSequence(PresetSequence("log"), "half-of"),
    ):
        assert sequence_from_json(s.to_json()) == s


def test_spec_minilanguage(tmp_path):
    assert parse_sequence_spec("constant:2") == ConstantSequence(2)
    assert parse_sequence_spec("periodic:2,3") == PeriodicSequence([2, 3])
    assert parse_sequence_spec("preset:iterated-log") == PresetSequence("iterated-log")
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"kind": "table", "bases": [2, 3], "extend": "repeat-last"}))
    assert parse_sequence_spec(f"file:{path}") == TableSequence([2, 3])
    with pytest.raises(ArgumentError):
        parse_sequence_spec("bogus:1")
    with pytest.raises(ArgumentError):
        parse_sequence_spec("preset:no-such-preset")


@given(st.lists(st.integers(min_value=2, max_value=50), min_size=1, max_size=8),
       st.integers(min_value=1, max_value=200))
def test_periodic_running_max_is_prefix_max(pattern, n):
    s = PeriodicSequence(pattern)
    assert s.running_max(n) == max(s.base_at(i) for i in range(1, n + 1))


def _level_starts(log_base):
    """Level starts ceil(b**c), c <= 40, that fit in int64."""
    return [v for v in (level_start(c, log_base) for c in range(41)) if v < 2**63 - 1]


@pytest.mark.parametrize("log_base", ["e", "2", "10"])
def test_level_start_is_least_value_on_its_level(log_base):
    for c, v in enumerate(_level_starts(log_base)):
        assert floor_log(v, log_base) == c
        assert v == 1 or floor_log(v - 1, log_base) == c - 1


@pytest.mark.parametrize("log_base", ["e", "2", "10"])
def test_log_bases_match_base_at_across_level_starts(log_base):
    idx = IndexLogSequence(log_base)
    for t in _level_starts(log_base)[:8]:
        lo, hi = max(1, t - 40), t + 40
        assert idx.bases(lo, hi).tolist() == [idx.base_at(n) for n in range(lo, hi + 1)]
    # inner bases on both sides of every level start up to 10**6
    table = sorted({max(2, t + d) for t in _level_starts(log_base) if t < 10**6
                    for d in (-1, 0, 1)})
    for Q in (TableSequence(table), PeriodicSequence(table[::-1]), PresetSequence("log")):
        P = PointwiseSequence(Q, "log-of", log_base)
        lo, hi = 1, len(table) + 300
        assert P.bases(lo, hi).tolist() == [P.base_at(n) for n in range(lo, hi + 1)]


class _HeadCycle(BasicSequence):
    """Any head followed by any cycle, which no public kind combines."""

    def __init__(self, head, cycle):
        self.head, self.cycle = head, cycle

    def to_json(self) -> dict:
        return {"kind": "head-cycle", "head": self.head, "cycle": self.cycle}


_NEAR_LEVEL_STARTS = sorted({max(2, t + d) for b in ("e", "2", "10") for t in _level_starts(b)
                             for d in (-1, 0, 1)})
_HEAD_CYCLE_BASES = st.one_of(st.integers(2, 40), st.integers(2, 2**63 - 1),
                              st.sampled_from(_NEAR_LEVEL_STARTS))
_OPS = [("half-of", "e"), ("log-of", "e"), ("log-of", "2"), ("log-of", "10")]


@st.composite
def head_cycle_sequences(draw):
    """A periodic, table or general head-and-cycle sequence under up to two
    pointwise ops."""
    head = draw(st.lists(_HEAD_CYCLE_BASES, max_size=6))
    cycle = draw(st.lists(_HEAD_CYCLE_BASES, min_size=1, max_size=6))
    seq = draw(st.sampled_from([_HeadCycle(head, cycle), PeriodicSequence(cycle),
                                TableSequence(head + cycle[:1])]))
    for op, log_base in draw(st.lists(st.sampled_from(_OPS), max_size=2)):
        seq = PointwiseSequence(seq, op, log_base)
    return seq


@settings(max_examples=300, deadline=None)
@given(head_cycle_sequences(), st.data())
def test_head_cycle_bases_and_running_max_match_base_at(seq, data):
    span = len(seq.head) + 2 * len(seq.cycle)
    lo = data.draw(st.one_of(st.integers(1, span + 3), st.integers(1, 2**62)))
    hi = data.draw(st.one_of(st.integers(lo - 3, lo + 2 * span), st.integers(-3, 0)))
    assert seq.bases(lo, hi).tolist() == [seq.base_at(n) for n in range(lo, hi + 1)]
    n = data.draw(st.integers(1, span + 3))
    top = seq.running_max(n)
    assert top == max(seq.base_at(i) for i in range(1, n + 1))
    # floor_log2 and the ladder's (q*q + 1)**r need exact Python ints
    assert type(top) is int


def test_bulk_bases_refuse_past_int64():
    for seq in (ConstantSequence(2**63), PeriodicSequence([2, 2**70]), TableSequence([2**63, 2]),
                PointwiseSequence(PeriodicSequence([2**64 + 3]), "half-of")):
        assert seq.base_at(1) >= 2  # per-position reads stay exact
        with pytest.raises(ArgumentError, match=re.escape("below 2**63")):
            seq.bases(1, 3)
    assert PeriodicSequence([2**63 - 1]).bases(1, 2).tolist() == [2**63 - 1] * 2
    assert TableSequence([3, 2**63]).bases(1, 1).tolist() == [3]  # head only


INT64_MAX = 2**63 - 1
_GROWING = [PresetSequence("log"), PresetSequence("iterated-log")] + [
    IndexLogSequence(b) for b in ("e", "2", "10")]
NONDECREASING = [ConstantSequence(2), ConstantSequence(9), *_GROWING] + [
    PointwiseSequence(Q, op, b) for Q in _GROWING
    for op, b in (("half-of", "e"), ("log-of", "e"), ("log-of", "2"), ("log-of", "10"))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NONDECREASING), st.data())
def test_first_position_and_run_length_bases(seq, data):
    # every base reached within int64 has a minimal first position
    top = seq.base_at(INT64_MAX)
    starts = []
    for c in range(top + 1):
        t = seq.first_position(c)
        assert seq.base_at(t) >= c and (t == 1 or seq.base_at(t - 1) < c), (c, t)
        starts.append(t)
    try:
        beyond = seq.first_position(top + 1)
    except (ArgumentError, ScanBoundError):
        beyond = INT64_MAX + 1  # refused: never reached, or not at desk scale
    assert beyond > INT64_MAX
    # run-length bases equal base_at on ranges near a level start, anywhere
    # below 2**62, or past 2**53
    near = st.builds(lambda t, d: min(max(1, t + d), INT64_MAX), st.sampled_from(starts),
                     st.integers(-1500, 1500))
    lo = data.draw(st.one_of(near, st.integers(1, 2**62), st.integers(2**53, 2**53 + 10**6),
                             st.integers(1, 5000)))
    hi = min(lo + data.draw(st.integers(-1, 3000)), INT64_MAX)
    assert seq.bases(lo, hi).tolist() == [seq.base_at(n) for n in range(lo, hi + 1)]


# Closed forms over the classes of starts, each against its array route as
# the oracle: the region kernel, the array expected-count pass, and the grid
# of admissible blocks, which a TableSequence of the same bases always takes.

def _run_starts(seq) -> list[int]:
    return [seq.first_position(c) for c in range(2, seq.base_at(10**6) + 1)]


def _near_run_start(seq):
    return st.builds(lambda t, d: max(0, t + d), st.sampled_from(_run_starts(seq)),
                     st.integers(-60, 60))


# small bases, so that head windows and cycle phases share their window
_SMALL_HEAD_CYCLES = st.builds(_HeadCycle, st.lists(st.integers(2, 4), max_size=12),
                               st.lists(st.integers(2, 4), min_size=1, max_size=7))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.sampled_from(NONDECREASING), _SMALL_HEAD_CYCLES), st.data())
def test_region_decode_equals_the_region_kernel(seq, data):
    r = data.draw(st.integers(1, 6))
    if seq.nondecreasing:
        lo = data.draw(st.one_of(_near_run_start(seq), st.integers(0, 10**6),
                                 st.integers(0, 2**62)))
    else:  # in the head, in the first cycles, and far past them up to what a read addresses
        lo = data.draw(st.one_of(st.integers(0, 30), st.integers(0, 2**60 - 10**4)))
    # the digits may start inside a window, and the count may cut a run, a
    # cycle and the last window
    skip = data.draw(st.one_of(st.integers(0, 6 * r), st.integers(0, 300)))
    take = data.draw(st.integers(1, 500))
    want, want_distinct = region_digits(seq.bases(lo + 1, lo + -(-(skip + take) // r) * r), r)
    got = np.full(take, -1, dtype=np.int64)
    # the class length from which one decoded period is copied: 1 and 3 send this
    # short read through the copy, the default through the one-pass route
    long_class = data.draw(st.sampled_from([1, 3, generator._LONG_CLASS]))
    with mock.patch.object(generator, "_LONG_CLASS", long_class):
        assert region_decode(seq, lo, r, got, skip) == want_distinct
    assert got.tolist() == want[skip:skip + take].tolist()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(NONDECREASING), st.integers(1, 3000))
def test_closed_form_generate_digits_equal_the_stream(seq, count):
    assert generate_digits(seq, count).tolist() == list(
        itertools.islice(generator.digit_stream(seq), count))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NONDECREASING), st.data())
def test_run_expected_counts_equal_the_array_pass(seq, data):
    block = tuple(data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=4)))
    near = _near_run_start(seq).map(lambda t: max(1, t))
    cps = sorted(set(data.draw(st.lists(st.one_of(near, st.integers(1, 3 * 10**4)),
                                        min_size=1, max_size=5))))
    hi = cps[-1] + len(block) - 1
    assert _expected_counts(seq, block, cps) == array_expected_counts(seq.bases(1, hi), block, cps)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(NONDECREASING), st.integers(1, 3), st.data())
def test_admissible_blocks_equal_on_both_routes(seq, k, data):
    n = data.draw(st.one_of(_near_run_start(seq).map(lambda t: max(1, t)),
                            st.integers(1, 10**5)))
    twin = TableSequence(seq.bases(1, n + k - 1).tolist())
    try:
        want = admissible_blocks(twin, k, n)
    except ArgumentError as exc:
        with pytest.raises(ArgumentError, match=re.escape(str(exc))):
            admissible_blocks(seq, k, n)
    else:
        assert admissible_blocks(seq, k, n) == want


# a nondecreasing sequence and a table with its bases wherever the ladder
# reads them for counts up to 10**5 (iterated-log keeps base 4 from 65532
# to 2**32 - 5)
_ITERATED = PresetSequence("iterated-log")
TWINS = [(ConstantSequence(2), TableSequence([2])), (ConstantSequence(9), TableSequence([9])),
         (_ITERATED, TableSequence(_ITERATED.bases(1, 70000).tolist()))]


def _kernel_digits(seq, count: int) -> np.ndarray:
    """Digits 1..count through the region kernel, each region from its
    start, with the spill limit of generate_digits."""
    pi, digits = PartitionIndex(seq), []
    for r in itertools.count(1):
        lo, hi = pi.region(r)
        if lo >= count:
            return np.concatenate(digits)
        nwin = -(-(min(hi, count) - lo) // r)
        got, distinct = region_digits(seq.bases(lo + 1, lo + nwin * r), r)
        if distinct > generator.DEFAULT_SPILL_LIMIT:
            raise CounterSpillError(f"{distinct} distinct base windows in one region exceeds "
                                    f"the spill limit {generator.DEFAULT_SPILL_LIMIT}")
        digits.append(got[: min(hi, count) - lo])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([*itertools.chain(*TWINS), PeriodicSequence([2, 2, 3]),
                        _HeadCycle([3, 2, 3, 3], [2, 3, 3])]),
       st.integers(1, 10**5), st.integers(1, 6))
def test_both_decode_routes_refuse_the_same_spill(seq, count, limit):
    with mock.patch.object(generator, "DEFAULT_SPILL_LIMIT", limit):
        try:
            want = _kernel_digits(seq, count)
        except CounterSpillError as exc:
            with pytest.raises(CounterSpillError, match=re.escape(str(exc))):
                generate_digits(seq, count)
        else:
            assert generate_digits(seq, count).tolist() == want.tolist()


def test_both_routes_refuse_the_same_int64_overflow():
    for seq in (ConstantSequence(2**40), PeriodicSequence([2**40]), _HeadCycle([2], [2**40, 3])):
        with pytest.raises(ArgumentError) as want:
            region_digits(seq.bases(1, 4), 2)
        with pytest.raises(ArgumentError, match=re.escape(str(want.value))):
            region_decode(seq, 0, 2, np.empty(4, dtype=np.int64), 0)
    wide = ConstantSequence(2**40)
    bases = wide.bases(1, 4)
    with pytest.raises(ArgumentError) as want:
        array_expected_counts(bases, (0, 0), [3])
    with pytest.raises(ArgumentError, match=re.escape(str(want.value))):
        expected_count(wide, (0, 0), 3)
    with pytest.raises(ArgumentError, match=re.escape(str(want.value))):
        expected_count(TableSequence([2**40]), (0, 0), 3)
