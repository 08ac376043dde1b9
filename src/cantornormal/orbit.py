"""Expansion orbits and exact discrepancy of finite samples.

The orbit of x under repeated base scaling is never evaluated exactly from
an infinite digit stream; every orbit point is a truncated tail sum carrying
a certified error bound 1/(q_{m+1}...q_{m+depth}) <= 2**-depth. The default
truncation depth at index m is floor(sqrt(r(m))) where r(m) is the window
length at position m, which is the depth whose error bound still vanishes
along the whole orbit; a fixed deeper depth can be requested instead.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import ArgumentError, excerpt
from .kernels import orbit_numbers
from .ladder import PartitionIndex
from .sequences import BasicSequence, check_checkpoints, check_length

# orbit indices per orbit block and per block of the discrepancy tail: keeps
# the per-step temporaries at a few MB however many points are asked for
_ORBIT_CHUNK = 1 << 16
# the float below 1: a value num/den < 1 past 53 bits of den can round up to 1.0
_BELOW_ONE = np.nextafter(1.0, 0.0)


def truncation_depth(index: PartitionIndex, m: int) -> int:
    """Default depth floor(sqrt(r(m))); index 0 borrows the depth at 1."""
    if m < 0:
        raise ArgumentError(f"orbit index must be >= 0, got {m}")
    return math.isqrt(index.region_of(max(m, 1)))


def orbit_values(E, count: int, *, depth: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Float orbit values and error bounds for indices 0..count-1 (bulk).

    Each value is the exact truncated value rounded to the nearest float,
    and rounded down where that would give 1.0, so it lies in [0, 1); it
    carries up to 2**-53 of float rounding on top of its `eps`. The values
    are formed block by block, as `_orbit_blocks` describes."""
    if count < 0:
        raise ArgumentError(f"orbit count must be >= 0, got {count}")
    check_length(count)
    if count == 0:
        return np.empty(0), np.empty(0)
    values, eps = np.empty(count), np.empty(count)
    for lo, hi, num, den in _orbit_blocks(E, count, depth):
        np.divide(num, den, out=values[lo:hi])
        np.minimum(values[lo:hi], _BELOW_ONE, out=values[lo:hi])
        np.divide(1.0, den, out=eps[lo:hi])
    return values, eps


def _orbit_blocks(E, count: int, depth: int | None, cuts=()):
    """Yield (lo, hi, num, den) for each block of orbit indices lo..hi-1,
    with the exact truncated values num/den of its points.

    The indices go in blocks of _ORBIT_CHUNK, also cut at each index where
    the default depth steps up and at each of the ascending `cuts`, so every
    block has one depth d. Each block reads the digits at positions
    lo + 1..hi - 1 + d through `E.window` into one buffer, sized once for
    the widest block at the last depth, and moves the d - 1 it shares with
    the next block to the buffer's front, so every position is read once and
    no array grows with count. On a nondecreasing sequence a block whose
    points read one base c throughout, with c**d <= 2**61, takes the run
    route: one scalar Horner pass over digit slices in a reused int64 buffer
    (so `num` is valid only until the next block), over the constant
    denominator den = float(c**d). Every other block goes to
    `kernels.orbit_numbers`, whose span check alone refuses denominators past
    int64, and den is its int64 array; both routes give the same bits."""
    if depth is not None and depth < 1:
        raise ArgumentError(f"truncation depth must be >= 1, got {excerpt(depth)}")
    seq = E.seq
    pi = PartitionIndex(seq)

    def depth_at(m: int) -> int:
        return truncation_depth(pi, m) if depth is None else int(depth)

    # depths never decrease with m, so the last index reads furthest; a read
    # that cannot be served is refused before any block is read
    last = count - 1 + depth_at(count - 1)
    E.window(last, last)
    # the default depth can only step up just past a region boundary
    steps = [] if depth is not None else [b + 1 for b in pi.boundaries_through(count)
                                          if b + 1 < count and depth_at(b + 1) > depth_at(b)]
    # run-route numerators; only a nondecreasing sequence takes the run route
    acc = np.empty(min(_ORBIT_CHUNK, count) if seq.nondecreasing else 0, dtype=np.int64)
    # buf[:read - lo] holds the digits at positions lo + 1..read
    buf = np.empty(min(_ORBIT_CHUNK, count) - 1 + depth_at(count - 1), dtype=np.int64)
    read = lo = 0
    for hi in heapq.merge(range(_ORBIT_CHUNK, count, _ORBIT_CHUNK), steps,
                          (m for m in cuts if 0 < m < count), [count]):
        if hi == lo:
            continue
        d = depth_at(lo)
        top = hi - 1 + d
        E.window(read, top, buf[read - lo : top - lo])
        digits = buf[: top - lo]
        c = _run_base(seq, lo + 1, top, d)
        if c is not None:
            num, den = acc[: hi - lo], float(c**d)
            num[:] = digits[: hi - lo]
            for i in range(1, d):
                num *= c
                num += digits[i : hi - lo + i]
        else:
            num, den = orbit_numbers(digits, seq.bases(lo + 1, top), d)
        yield lo, hi, num, den
        # the next block's positions hi + 1..top are read already
        buf[: top - hi] = buf[hi - lo : top - lo]
        lo, read = hi, top


def _run_base(seq: BasicSequence, first: int, last: int, d: int) -> int | None:
    """The one base c at positions first..last of a nondecreasing sequence,
    if the depth-d denominator c**d is at most 2**61; None otherwise, which
    leaves the refusal of wider denominators to the kernel's span check."""
    if not seq.nondecreasing or d > 61:
        return None
    c = seq.base_at(first)
    # bases never decrease, so equal ends mean one run
    return c if c == seq.base_at(last) and c**d <= 1 << 61 else None


def _sorted_sample(values) -> np.ndarray:
    """The sample sorted: an object array of exact Fractions for rational
    inputs, floats otherwise. Fractions in [0, 1) sort on (float, exact)
    keys, as float rounding is monotone and equal floats fall back to the
    exact compare; any other sample, which `_discrepancies` refuses, may hold
    a value past the float range and sorts on the exact compare alone."""
    if not isinstance(values, np.ndarray):
        values = list(values)  # read twice below, and an iterator reads only once
        if values and all(isinstance(v, Rational) and not isinstance(v, float) for v in values):
            values = [Fraction(v) for v in values]
            inside = all(0 <= v.numerator < v.denominator for v in values)
            values.sort(key=(lambda v: (float(v), v)) if inside else None)
            return np.array(values, dtype=object)
    return np.sort(np.asarray(values, dtype=np.float64))


def _discrepancies(xs: np.ndarray, ks: np.ndarray | None = None) -> tuple:
    """Star and extreme discrepancy of the sorted values xs, the j-th taken
    ks[j] times, or each once when ks is None.

    With d_i = i/N - x_(i), the star discrepancy is max(max d_i, 1/N - min d_i)
    and the extreme one 1/N + max d_i - min d_i. For fixed x, fl(fl(i/N) - x)
    is nondecreasing in i, so a value held at sorted indices a..b has its
    largest d_i at b and its smallest at a. The d_i are formed in blocks of
    _ORBIT_CHUNK values, so no length-N temporary is made. Floats give
    Python floats; an object array of Fractions gives exact Fractions.
    """
    if xs.size < 1:
        raise ArgumentError("discrepancy needs at least one sample")
    if not (0 <= xs[0] and xs[-1] < 1):  # NaN sorts last
        raise ArgumentError("samples must lie in [0, 1)")
    exact = xs.dtype == object
    # i/N: an exact Fraction(i, N) for Fractions, numpy's float quotient otherwise
    over = np.frompyfunc(Fraction, 2, 1) if exact else np.divide
    n = xs.size if ks is None else int(ks.sum())
    high, low, seen = -np.inf, np.inf, 0
    for lo in range(0, xs.size, _ORBIT_CHUNK):
        x = xs[lo : lo + _ORBIT_CHUNK]
        if ks is None:  # each point its own group: one d_i per point
            d_last = np.arange(lo + 1, lo + 1 + x.size, dtype=xs.dtype)
            over(d_last, n, out=d_last)
            d_last -= x
            d_first = d_last
        else:
            k = ks[lo : lo + _ORBIT_CHUNK]
            last = np.cumsum(k) + seen
            seen = last[-1]
            d_last = over(last, n) - x
            d_first = over(last - k + 1, n) - x
        high, low = max(high, d_last.max()), min(low, d_first.min())
    star, extreme = max(high, over(1, n) - low), over(1, n) + high - low
    return (star, extreme) if exact else (float(star), float(extreme))


def star_discrepancy(values):
    """Exact star discrepancy via the sorted-points formula.

    Rational inputs give an exact Fraction; float inputs use numpy.
    """
    return _discrepancies(_sorted_sample(values))[0]


def extreme_discrepancy(values):
    """Exact two-sided discrepancy: 1/N + max_i(i/N - x_i) - min_i(i/N - x_i)
    over the sorted sample. Equals the supremum over all half-open intervals."""
    return _discrepancies(_sorted_sample(values))[1]


@dataclass
class DiscrepancyRow:
    n: int
    d_star: float
    d_extreme: float
    max_eps: float


@dataclass
class DiscrepancyReport:
    depth: str
    rows: list[DiscrepancyRow]

    def csv_rows(self) -> list[list]:
        return [["n", "d_star", "d_extreme", "max_eps"]] + [
            [r.n, repr(r.d_star), repr(r.d_extreme), repr(r.max_eps)] for r in self.rows]

    def to_json(self) -> dict:
        return {"depth": self.depth, "rows": [asdict(r) for r in self.rows]}


def orbit_discrepancy_report(E, checkpoints, *, depth: int | None = None) -> DiscrepancyReport:
    """Star/extreme discrepancy of the truncated orbit sample (x_m) for
    m < N at each checkpoint N, plus the largest certified truncation error.

    No sample array is held: each orbit block, cut at the checkpoints too,
    is reduced to its sorted values with their counts, which merge at each
    checkpoint into the running groups of equal values; `_discrepancies`
    reads the groups with their counts, as it reads a sorted sample."""
    cps = check_checkpoints(checkpoints)
    xs, ks = np.empty(0), np.empty(0, dtype=np.int64)
    pending, max_eps, rows = [], 0.0, []
    for _, hi, num, den in _orbit_blocks(E, cps[-1], depth, cps):
        pending.append(_block_groups(num, den))
        max_eps = max(max_eps, float(1.0 / np.min(den)))
        if hi == cps[len(rows)]:
            xs, ks = _merge_groups(xs, ks, pending)
            rows.append(DiscrepancyRow(hi, *_discrepancies(xs, ks), max_eps))
    return DiscrepancyReport("default" if depth is None else f"fixed:{depth}", rows)


def _block_groups(num: np.ndarray, den) -> tuple[np.ndarray, np.ndarray]:
    """Sorted float values of one block, num/den clamped below 1 as in
    `orbit_values`, with their counts. A run-route block (scalar den) counts
    its numerators: by bins when den <= 2**20, else by `np.unique`. Numerators
    past 2**53 can round to one float; the checkpoint merge groups those."""
    if np.ndim(den):  # a kernel block
        return np.unique(np.minimum(num / den, _BELOW_ONE), return_counts=True)
    if den <= 1 << 20:
        counts = np.bincount(num)
        nums = np.flatnonzero(counts)
        counts = counts[nums]
    else:
        nums, counts = np.unique(num, return_counts=True)
    return np.minimum(nums / den, _BELOW_ONE), counts


def _merge_groups(xs, ks, pending: list) -> tuple[np.ndarray, np.ndarray]:
    """Merge the pending blocks' (values, counts) into the running sorted groups
    of equal values; each step lets go of what it replaces, `pending` too."""
    xs = np.concatenate([xs] + [p[0] for p in pending])
    ks = np.concatenate([ks] + [p[1] for p in pending])
    pending.clear()
    order = np.argsort(xs)  # equal values merge whatever their order
    xs = xs[order]
    ks = ks[order]
    del order
    first = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    if first.size == xs.size:  # no ties
        return xs, ks
    return xs[first], np.add.reduceat(ks, first)
