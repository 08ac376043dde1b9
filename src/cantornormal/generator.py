"""Digit generation for the cycling construction.

Three routes produce the same digits:

* ``generate_digits`` - bulk arrays through ``window_digits``, which decodes
  any window of positions alone, region by region, in closed form over the
  classes of starts that share a base window (``region_decode``); one
  formula, ``_radix_digits``, decodes every window it writes, whole or cut,
* ``digit_stream``    - a stateful pure-Python generator walking windows in
  position order (single consumer),
* ``digit_at``        - a direct per-position oracle that recounts earlier
  equal windows from the region start. O(n) per call; meant for
  cross-checking the other two, not for bulk generation.

The two oracles read their blocks through ``ladder.block_from_index``, which
the bulk decode does not share.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import ArgumentError, CounterSpillError, excerpt
from .kernels import _check_key_width
from .ladder import PartitionIndex, block_from_index
from .sequences import BasicSequence, check_length, check_position

DEFAULT_SPILL_LIMIT = 10**7
# a class with this many members in one read decodes one period of its digits and
# copies it; the members of shorter classes are decoded one by one, in one pass
_LONG_CLASS = 1 << 10


def _radix_digits(ranks: np.ndarray, radices: np.ndarray, period) -> np.ndarray:
    """Big-endian mixed-radix digits of ranks mod period, a row per rank,
    under one row of radices or a row per rank."""
    places = np.cumprod(radices[..., ::-1], axis=-1)[..., ::-1] // radices
    return (ranks % period)[:, None] // places % radices


def region_decode(seq: BasicSequence, lo: int, r: int, out: np.ndarray, skip: int) -> int:
    """Write the digits of the region of length-r windows after position lo,
    from its position lo + skip + 1 on, into a non-empty `out`, which may cut
    its first and last window; return the distinct window count of the
    windows up to the last one written. Equals kernels.region_digits.

    Window j starts at lo + 1 + j*r; its digits are those of its occurrence
    rank among the equal windows before it, mod the product of its bases. A
    class of starts of seq.window_classes meets the window starts in window
    indices jmin, jmin + period, ... (CRT). Classes share a window only on a
    head/cycle sequence, as head starts, which come before the cycle, or as
    cycle phases, whose first members lie within one period of each other.
    So member i of a class ranks rank0 + rise * i, where rank0 counts the
    classes with its window that start before it and rise the cycle phases
    with its window (1 on a run), and its digits repeat every
    product-of-bases members.
    """
    nwin = -(-(skip + out.size) // r)  # windows 0..nwin-1 are read
    first, last, step, windows = seq.window_classes(r, lo + 1 + (nwin - 1) * r)
    first, last, step = (np.asarray(v, dtype=np.int64) for v in (first, last, step))
    off, gcd = first - lo - 1, np.gcd(step, r)  # window j is in: j*r = off mod step
    period = step // gcd
    inverse = np.zeros_like(step)  # of r / gcd mod period, one per distinct step
    for s in set(step.tolist()):
        inverse[step == s] = pow(r // math.gcd(s, r), -1, s // math.gcd(s, r))
    jfirst = np.maximum(-(-off // r), 0)  # the first window from `first` on
    jmin = jfirst + ((off // gcd) % period * inverse - jfirst) % period
    jlast = np.minimum((last - lo - 1) // r, nwin - 1)  # the last window up to `last`
    count = np.where(off % gcd, 0, (jlast - jmin) // period + 1)
    keep = count > 0
    jmin, period, count, windows = jmin[keep], period[keep], count[keep], windows[keep]
    beta = int(windows.max()) + 1
    _check_key_width(beta, r)
    windows = windows.astype(np.int64)
    keys = windows @ beta ** np.arange(r - 1, -1, -1, dtype=np.int64)  # one per window
    prods = windows.prod(axis=1)
    order = np.lexsort((jmin, keys))
    rank0 = np.empty_like(jmin)
    rank0[order] = np.arange(order.size) - np.searchsorted(keys[order], keys[order])
    # classes of period above 1 are cycle phases; a repeating class of period 1 (a
    # run, or a cycle's one phase in this region) is the only one with its window
    phases = np.sort(keys[period > 1])
    rise = np.maximum(np.searchsorted(phases, keys, "right") - np.searchsorted(phases, keys), 1)
    # the members in the windows jlo..jhi-1, which out holds whole
    jlo, jhi = -(-skip // r), (skip + out.size) // r
    rows = out[jlo * r - skip : max(jhi * r - skip, 0)].reshape(-1, r)
    i0 = np.maximum(-(-(jlo - jmin) // period), 0)
    n = np.maximum(np.minimum(count, -(-(jhi - jmin) // period)) - i0, 0)
    few = np.flatnonzero(n < _LONG_CLASS)
    c = np.repeat(few, n[few])
    i = np.arange(c.size) - np.repeat(np.cumsum(n[few]) - n[few] - i0[few], n[few])
    rows[jmin[c] + period[c] * i - jlo] = _radix_digits(rank0[c] + rise[c] * i, windows[c],
                                                        prods[c])
    for c in np.flatnonzero(n >= _LONG_CLASS):  # one period decoded, then copied
        view = rows[jmin[c] + period[c] * i0[c] - jlo :: period[c]][: n[c]]
        filled = min(n[c], prods[c])
        i = np.arange(i0[c], i0[c] + filled, dtype=np.int64)
        view[:filled] = _radix_digits(rank0[c] + rise[c] * i, windows[c], prods[c])
        while filled < view.shape[0]:
            size = min(filled, view.shape[0] - filled)
            view[filled : filled + size] = view[:size]
            filled += size
    for j in {j for j in (skip // r, nwin - 1) if not jlo <= j < jhi}:  # out cuts these
        i = j - jmin
        c = np.flatnonzero((i >= 0) & (i % period == 0) & (i < count * period))[0]
        rank = rank0[c : c + 1] + rise[c] * (i[c] // period[c])
        block = _radix_digits(rank, windows[c], prods[c])[0]
        a, b = max(j * r, skip), min(j * r + r, skip + out.size)
        out[a - skip : b - skip] = block[a - j * r : b - j * r]
    return int(np.count_nonzero(rank0 == 0))  # the first class with each window


def window_digits(pi: PartitionIndex, lo: int, hi: int, out: np.ndarray) -> None:
    """Write the digits over the ladder's sequence `pi.seq` at positions
    lo + 1..hi into `out`. Only the windows holding those positions are
    decoded (region_decode)."""
    pos = lo
    while pos < hi:
        r = pi.region_of(pos + 1)
        a, b = pi.region(r)
        distinct = region_decode(pi.seq, a, r, out[pos - lo : min(b, hi) - lo], pos - a)
        if distinct > DEFAULT_SPILL_LIMIT:
            raise CounterSpillError(
                f"{distinct} distinct base windows in one region exceeds "
                f"the spill limit {DEFAULT_SPILL_LIMIT}"
            )
        pos = b


def generate_digits(seq: BasicSequence, count: int) -> np.ndarray:
    """Digits at positions 1..count as an int64 array."""
    if count < 0:
        raise ArgumentError(f"digit count must be >= 0, got {excerpt(count)}")
    check_length(count)
    out = np.empty(count, dtype=np.int64)
    window_digits(PartitionIndex(seq), 0, count, out)
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
