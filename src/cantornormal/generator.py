"""Digit generation for the cycling construction.

Three routes produce the same digits:

* ``generate_digits`` - bulk arrays, region by region, through
  ``window_digits``. On a nondecreasing sequence it decodes each region in
  closed form over its runs of constant base (``run_region_digits``, the
  fast path), which also decodes any window of positions alone; other
  sequences go through the numpy region kernel ``kernels.region_digits``,
* ``digit_stream``    - a stateful pure-Python generator walking windows in
  position order (single consumer),
* ``digit_at``        - a direct per-position oracle that recounts earlier
  equal windows from the region start. O(n) per call; meant for
  cross-checking the other two, not for bulk generation.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import ArgumentError, CounterSpillError, excerpt
from .kernels import _check_key_width, region_digits
from .ladder import PartitionIndex, block_from_index
from .sequences import BasicSequence, check_position

DEFAULT_SPILL_LIMIT = 10**7


def _counting_digits(out: np.ndarray, c: int, r: int, start: int = 0) -> None:
    """Fill `out` with the big-endian r-digit base-c counting sequence
    0, 1, 2, ... mod c**r, read from its digit `start` on and cut to
    out.size digits."""
    period = c**r
    skip = start % r
    # the sequence repeats every period * r digits, and so does `out`
    filled = min(out.size, period * r)
    rows = -(-(filled + skip) // r)  # at most period + 1
    # ranks from start // r on; their last r base-c digits are those mod c**r
    idx = np.arange(start // r, start // r + rows, dtype=np.int64)
    table = np.empty((rows, r), dtype=np.int64)
    for i in range(r - 1, -1, -1):
        table[:, i] = idx % c
        idx //= c
    out[:filled] = table.reshape(-1)[skip : skip + filled]
    # past the table, filled is a multiple of the period
    while filled < out.size:
        step = min(filled, out.size - filled)
        out[filled : filled + step] = out[:step]
        filled += step


def run_region_digits(seq: BasicSequence, lo: int, r: int, out: np.ndarray,
                      skip: int = 0) -> int:
    """The digits of the region of length-r windows that starts after
    position lo, from its position lo + skip + 1 on, for a nondecreasing
    sequence, written into `out` (which may cut the last window); returns
    the distinct window count of the region's windows through the last one
    written.

    Equals region_digits on the same bases, in closed form over the runs of
    constant base: the windows lying wholly in a run of base c share the key
    (c, ..., c), so their occurrence ranks are 0, 1, 2, ... and their digits
    the base-c counting sequence mod c**r. A window that straddles a run
    boundary has a key of its own, so rank 0 and all digits 0.
    """
    if out.size == 0:
        return 0
    nwin = -(-(skip + out.size) // r)  # windows 0..nwin-1 are read
    runs = seq.base_runs(lo + 1, lo + nwin * r)
    _check_key_width(runs[-1][2] + 1, r)

    def at(j: int) -> int:  # where window j starts in `out`, clamped to it
        return min(max(j * r - skip, 0), out.size)

    distinct = done = 0  # windows before `done` are counted and written
    for start, stop, c in runs:
        # whole windows j: lo + 1 + j*r >= start and lo + (j + 1)*r < stop
        first = -(-(start - lo - 1) // r)
        end = min((stop - 1 - lo) // r, nwin)
        if end <= first:
            continue
        out[at(done) : at(first)] = 0
        if at(end) > at(first):
            _counting_digits(out[at(first) : at(end)], c, r, max(skip - first * r, 0))
        distinct += first - done + 1
        done = end
    out[at(done) :] = 0
    return distinct + nwin - done


def window_digits(seq: BasicSequence, pi: PartitionIndex, lo: int, hi: int,
                  out: np.ndarray) -> None:
    """Write the digits at positions lo + 1..hi into `out`; `pi` is the
    ladder of `seq`.

    On a nondecreasing sequence only the windows holding those positions are
    decoded (run_region_digits). Any other sequence decodes each region from
    its start, where its occurrence ranks start, so its cost grows with hi
    rather than with hi - lo.
    """
    if hi <= lo:
        return
    pos, r = lo, pi.region_of(lo + 1)
    while pos < hi:
        a, b = pi.region(r)
        if b > pos:
            end = min(b, hi)
            part = out[pos - lo : end - lo]
            if seq.nondecreasing:
                distinct = run_region_digits(seq, a, r, part, pos - a)
            else:
                nwin = -(-(end - a) // r)
                digits, distinct = region_digits(seq.bases(a + 1, a + nwin * r), r)
                part[:] = digits[pos - a : end - a]
            if distinct > DEFAULT_SPILL_LIMIT:
                raise CounterSpillError(
                    f"{distinct} distinct base windows in one region exceeds "
                    f"the spill limit {DEFAULT_SPILL_LIMIT}"
                )
            pos = end
        r += 1


def generate_digits(seq: BasicSequence, count: int) -> np.ndarray:
    """Digits at positions 1..count as an int64 array."""
    if count < 0:
        raise ArgumentError(f"digit count must be >= 0, got {excerpt(count)}")
    out = np.empty(count, dtype=np.int64)
    window_digits(seq, PartitionIndex(seq), 0, count, out)
    return out


def digit_stream(seq: BasicSequence) -> Iterator[int]:
    """Infinite digit iterator walking windows in position order."""
    pi = PartitionIndex(seq)
    r = 1
    while True:
        lo, hi = pi.region(r)
        # ordinals restart in every region, so do the counts and the spill limit
        counts: dict = {}
        for wstart in range(lo + 1, hi + 1, r):
            bases = tuple(int(seq.base_at(wstart + i)) for i in range(r))
            occ = counts.get(bases, 0) + 1
            if occ == 1 and len(counts) >= DEFAULT_SPILL_LIMIT:
                raise CounterSpillError(
                    f"more than {DEFAULT_SPILL_LIMIT} distinct base windows in one region"
                )
            counts[bases] = occ
            ordinal = (occ - 1) % math.prod(bases) + 1
            yield from block_from_index(bases, ordinal)
        r += 1


def digit_at(seq: BasicSequence, n: int, *, index: PartitionIndex | None = None) -> int:
    """Digit at position n computed without streaming state.

    Finds the containing window, recounts every earlier window in the region
    with the same bases, and reads the digit out of the cyclically assigned
    block. Agrees exactly with digit_stream. An `index` saves rebuilding the
    ladder across calls; it must be built for `seq`.
    """
    check_position(n)
    if index is not None and index.seq is not seq and index.seq != seq:
        raise ArgumentError("the partition index was built for another sequence")
    pi = index or PartitionIndex(seq)
    r = pi.region_of(n)
    lo, _ = pi.region(r)
    j = (n - lo - 1) // r
    offset = (n - lo - 1) % r
    wstart = lo + j * r + 1
    target = seq.bases(wstart, wstart + r - 1)
    earlier_equal = 0
    if j > 0:
        earlier = seq.bases(lo + 1, lo + j * r).reshape(j, r)
        earlier_equal = int((earlier == target).all(axis=1).sum())
    bases = tuple(int(b) for b in target)
    ordinal = earlier_equal % math.prod(bases) + 1
    return block_from_index(bases, ordinal)[offset]
