"""Windowed digit reads against the prefix they slice.

Every stream answers `window(lo, hi)` with `prefix(hi)[lo:]`. Every stream,
the finite list included, reads a window through its own window function,
so each is checked on a stream whose prefix is never read, against a twin
stream's prefix, with lo and hi drawn near the seams where the decode
changes course: region boundaries, runs of constant base, the schedule's
levels and its array chunks.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantornormal import (
    ArgumentError,
    ConstantSequence,
    InsufficientDigitsError,
    PartitionIndex,
    PeriodicSequence,
    PointwiseSequence,
    TableSequence,
    build_half_range,
    build_orbit_sink,
    build_patched_uniform,
    constructed_digits,
    finite_digits,
    generate_digits,
    orbit_values,
    parse_sequence_spec,
)
from cantornormal import transforms
from cantornormal.generator import region_decode
from cantornormal.kernels import region_digits

TOP = 3 * transforms._PREFIX_CHUNK + 2000  # past three chunk seams of the schedule

LOG = parse_sequence_spec("preset:log")
ITERATED = parse_sequence_spec("preset:iterated-log")
PERIODIC = parse_sequence_spec("periodic:2,3,5")
TABLE = TableSequence([3, 3, 2, 3, 3, 3])  # head windows that share the cycle's window
FINITE_SEQ = parse_sequence_spec("periodic:2,7")
_FINITE_DIGITS = np.random.default_rng(5).integers(0, FINITE_SEQ.bases(1, TOP))

BUILDERS = {
    "xq-nondecreasing": lambda: constructed_digits(LOG),
    "xq-iterated-log": lambda: constructed_digits(ITERATED),
    "xq-head-cycle": lambda: constructed_digits(PERIODIC),
    "xq-table": lambda: constructed_digits(TABLE),
    "nq-not-dnq": lambda: build_orbit_sink(LOG),
    "rnq-not-nq": lambda: build_half_range(ITERATED),
    "rnq-dnq-not-nq": lambda: build_patched_uniform(LOG),
    "finite": lambda: finite_digits(FINITE_SEQ, _FINITE_DIGITS),
}
_TWINS = {}


def _twin_prefix(kind: str) -> np.ndarray:
    """The whole prefix to TOP of a stream built like `kind`, read once."""
    if kind not in _TWINS:
        _TWINS[kind] = BUILDERS[kind]().prefix(TOP)
    return _TWINS[kind]


def _seams() -> list[int]:
    """Positions where some stream's decode changes course, up to TOP."""
    seams = set(range(0, TOP, transforms._PREFIX_CHUNK))
    for seq in (LOG, ITERATED, PERIODIC, TABLE, PointwiseSequence(ITERATED, "half-of")):
        seams.update(PartitionIndex(seq).boundaries_through(TOP))
        if seq.nondecreasing:
            seams.update(seq.first_position(c) - 1 for c in range(3, seq.base_at(TOP) + 1))
    sched = build_patched_uniform(LOG).schedule
    j = 1
    while sched.level(j) <= TOP:
        seams.update((sched.level(j) - 1, sched.level(j) + j - 1))
        j += 1
    return sorted(s for s in seams if s <= TOP)


_NEAR_SEAM = st.builds(lambda s, d: min(max(s + d, 0), TOP),
                       st.sampled_from(_seams()), st.integers(-40, 40))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BUILDERS)), st.data())
def test_window_equals_the_prefix_slice(kind, data):
    E = BUILDERS[kind]()
    want = _twin_prefix(kind)
    for _ in range(3):  # windows in any order, on a stream whose prefix is never read
        lo, hi = sorted(data.draw(st.lists(st.one_of(_NEAR_SEAM, st.integers(0, TOP)),
                                           min_size=2, max_size=2)))
        assert E.window(lo, hi).tolist() == want[lo:hi].tolist()
        out = np.full(hi - lo, -1, dtype=np.int64)
        assert E.window(lo, hi, out) is out
        assert out.tolist() == want[lo:hi].tolist()
    assert E._buf.size == 0


def test_window_refusals_match_the_prefix():
    E = BUILDERS["finite"]()
    with pytest.raises(InsufficientDigitsError) as want:
        E.prefix(TOP + 1)
    with pytest.raises(InsufficientDigitsError, match=re.escape(str(want.value))):
        E.window(TOP, TOP + 1)
    with pytest.raises(InsufficientDigitsError, match=re.escape(str(want.value))):
        E.window(TOP + 1, TOP + 1)
    xq = constructed_digits(LOG)
    with pytest.raises(ArgumentError) as want:
        xq.prefix(2**63)
    with pytest.raises(ArgumentError, match=re.escape(str(want.value))):
        xq.window(2**63, 2**63)
    # the library's bulk entry points refuse that length before allocating too
    with pytest.raises(ArgumentError, match=re.escape(str(want.value))):
        generate_digits(LOG, 2**63)
    with pytest.raises(ArgumentError, match=re.escape(str(want.value))):
        orbit_values(xq, 2**63)
    with pytest.raises(ArgumentError, match="lo <= hi"):
        xq.window(5, 4)
    with pytest.raises(ArgumentError, match="lo <= hi"):
        xq.window(-1, 4)


def _counting_table(c: int, r: int, size: int) -> list[int]:
    """The r-digit base-c counting sequence from rank 0, as a plain list."""
    out = []
    k = 0
    while len(out) < size:
        v = k % c**r
        out.extend(v // c**i % c for i in range(r - 1, -1, -1))
        k += 1
    return out[:size]


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5), st.integers(1, 4), st.data())
def test_counting_digits_from_any_start_slice_the_rank_0_table(c, r, data):
    # every window is (c, ..., c), so window j of a region has rank j: one
    # class, cycle phases that share the window, or head starts and a cycle
    seq = data.draw(st.sampled_from([ConstantSequence(c), PeriodicSequence([c] * 3),
                                     TableSequence([c] * 7)]))
    lo = data.draw(st.integers(0, 40))
    period = c**r * r
    start = data.draw(st.one_of(st.integers(0, 3 * period),
                                st.integers(0, 3 * c**r).map(lambda k: k * r),  # a rank
                                st.integers(0, 2**40)))
    size = data.draw(st.integers(1, 3 * period + 5))
    out = np.full(size, -1, dtype=np.int64)
    region_decode(seq, lo, r, out, start)
    want = _counting_table(c, r, start % period + size)[start % period:]
    assert out.tolist() == want
    if start <= 3 * period:  # the region kernel, from the region's start
        kernel, _ = region_digits(seq.bases(lo + 1, lo + -(-(start + size) // r) * r), r)
        assert kernel[start:start + size].tolist() == want
