"""Digit generation for the cycling construction.

Three routes produce the same digits:

* ``generate_digits`` - bulk arrays, region by region. On a nondecreasing
  sequence it decodes each region in closed form over its runs of constant
  base (``run_region_digits``, the fast path); other sequences go through
  the numpy region kernel ``kernels.region_digits``,
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


class OccurrenceCounters:
    """Counts how often each base block has appeared within one region."""

    def __init__(self):
        self._counts: dict = {}

    def bump(self, bases: tuple) -> int:
        """Record one more occurrence and return its 1-based ordinal."""
        c = self._counts.get(bases, 0) + 1
        if c == 1 and len(self._counts) >= DEFAULT_SPILL_LIMIT:
            raise CounterSpillError(
                f"more than {DEFAULT_SPILL_LIMIT} distinct base windows in one region"
            )
        self._counts[bases] = c
        return c


def _counting_digits(out: np.ndarray, c: int, r: int) -> None:
    """Fill `out` with the big-endian r-digit base-c counting sequence
    0, 1, 2, ... mod c**r, cut to out.size digits."""
    rows = min(c**r, -(-out.size // r))
    idx = np.arange(rows, dtype=np.int64)
    table = np.empty((rows, r), dtype=np.int64)
    for i in range(r - 1, -1, -1):
        table[:, i] = idx % c
        idx //= c
    filled = min(table.size, out.size)
    out[:filled] = table.reshape(-1)[:filled]
    # past the table, filled is a multiple of the period c**r * r
    while filled < out.size:
        step = min(filled, out.size - filled)
        out[filled : filled + step] = out[:step]
        filled += step


def run_region_digits(seq: BasicSequence, lo: int, r: int, out: np.ndarray) -> int:
    """Digits of the length-r windows from position lo + 1 on, for a
    nondecreasing sequence, written into `out` (which may cut the last
    window); returns their distinct window count.

    Equals region_digits on the same bases, in closed form over the runs of
    constant base: the windows lying wholly in a run of base c share the key
    (c, ..., c), so their occurrence ranks are 0, 1, 2, ... and their digits
    the base-c counting sequence mod c**r. A window that straddles a run
    boundary has a key of its own, so rank 0 and all digits 0.
    """
    nwin = -(-out.size // r)
    if nwin == 0:
        return 0
    runs = seq.base_runs(lo + 1, lo + nwin * r)
    _check_key_width(runs[-1][2] + 1, r)
    distinct = done = 0  # windows before `done` are written
    for start, stop, c in runs:
        # whole windows j: lo + 1 + j*r >= start and lo + (j + 1)*r < stop
        first = -(-(start - lo - 1) // r)
        end = min((stop - 1 - lo) // r, nwin)
        if end <= first:
            continue
        out[done * r : first * r] = 0
        _counting_digits(out[first * r : end * r], c, r)
        distinct += first - done + 1
        done = end
    out[done * r :] = 0
    return distinct + nwin - done


def generate_digits(seq: BasicSequence, count: int) -> np.ndarray:
    """Digits at positions 1..count as an int64 array."""
    if count < 0:
        raise ArgumentError(f"digit count must be >= 0, got {excerpt(count)}")
    pi = PartitionIndex(seq)
    out = np.empty(count, dtype=np.int64)
    produced = 0
    r = 1
    while produced < count:
        lo, hi = pi.region(r)
        if hi > lo:
            take = min(hi - lo, count - lo)
            if seq.nondecreasing:
                distinct = run_region_digits(seq, lo, r, out[lo : lo + take])
            else:
                nwin = -(-take // r)
                digits, distinct = region_digits(seq.bases(lo + 1, lo + nwin * r), r)
                out[lo : lo + take] = digits[:take]
            if distinct > DEFAULT_SPILL_LIMIT:
                raise CounterSpillError(
                    f"{distinct} distinct base windows in one region exceeds "
                    f"the spill limit {DEFAULT_SPILL_LIMIT}"
                )
            produced = lo + take
        r += 1
    return out


def digit_stream(seq: BasicSequence) -> Iterator[int]:
    """Infinite digit iterator walking windows in position order."""
    pi = PartitionIndex(seq)
    r = 1
    while True:
        lo, hi = pi.region(r)
        # ordinals restart in every region, so do the counts and the spill limit
        counters = OccurrenceCounters()
        for wstart in range(lo + 1, hi + 1, r):
            bases = tuple(int(seq.base_at(wstart + i)) for i in range(r))
            occ = counters.bump(bases)
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
