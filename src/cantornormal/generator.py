"""Digit generation for the cycling construction.

Three routes produce the same digits:

* ``generate_digits`` - bulk arrays via the numpy region kernel (fast path),
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
from .kernels import region_digits
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
            nwin_total = (hi - lo) // r
            nwin = min(nwin_total, -(-(count - lo) // r))
            bases = seq.bases(lo + 1, lo + nwin * r)
            digits, distinct = region_digits(bases, r)
            if distinct > DEFAULT_SPILL_LIMIT:
                raise CounterSpillError(
                    f"{distinct} distinct base windows in one region exceeds "
                    f"the spill limit {DEFAULT_SPILL_LIMIT}"
                )
            take = min(nwin * r, count - lo)
            out[lo : lo + take] = digits[:take]
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
