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
from .sequences import BasicSequence, check_checkpoints

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


def _exact_values(values) -> list[Fraction] | None:
    if isinstance(values, np.ndarray):
        return None
    if values and all(isinstance(v, Rational) and not isinstance(v, float) for v in values):
        return [Fraction(v) for v in values]
    return None


def _sorted_discrepancies(xs: np.ndarray) -> tuple[float, float]:
    """Star and extreme discrepancy of a sorted float sample.

    With d_i = i/N - x_(i), the star discrepancy is max(max d_i, 1/N - min d_i)
    and the extreme one 1/N + max d_i - min d_i. The d_i are formed in blocks
    of _ORBIT_CHUNK, so no length-N temporary is made.
    """
    n = xs.size
    if n < 1:
        raise ArgumentError("discrepancy needs at least one sample")
    _check_unit((xs[0], xs[-1]))  # NaN sorts last
    low, high = np.inf, -np.inf
    for lo in range(0, n, _ORBIT_CHUNK):
        hi = min(lo + _ORBIT_CHUNK, n)
        diffs = np.arange(lo + 1, hi + 1, dtype=np.float64)
        diffs /= n
        diffs -= xs[lo:hi]
        low, high = min(low, diffs.min()), max(high, diffs.max())
    return _from_extremes(n, low, high)


def _from_extremes(n: int, low, high) -> tuple[float, float]:
    """Star and extreme discrepancy from the smallest and largest d_i."""
    return float(max(high, 1.0 / n - low)), float(1.0 / n + high - low)


def _sample_discrepancies(values) -> tuple:
    """Star and extreme discrepancy of a sample from one sort: exact
    Fractions for rational inputs, floats from numpy otherwise."""
    if not isinstance(values, np.ndarray):
        values = list(values)  # both paths read it, and an iterator reads only once
    exact = _exact_values(values)
    if exact is None:
        return _sorted_discrepancies(np.sort(np.asarray(values, dtype=np.float64)))
    _check_unit(exact)
    n = len(exact)
    diffs = [Fraction(i, n) - x for i, x in enumerate(sorted(exact), start=1)]
    low, high = min(diffs), max(diffs)
    return max(high, Fraction(1, n) - low), Fraction(1, n) + high - low


def star_discrepancy(values):
    """Exact star discrepancy via the sorted-points formula.

    Rational inputs give an exact Fraction; float inputs use numpy.
    """
    return _sample_discrepancies(values)[0]


def extreme_discrepancy(values):
    """Exact two-sided discrepancy: 1/N + max_i(i/N - x_i) - min_i(i/N - x_i)
    over the sorted sample. Equals the supremum over all half-open intervals."""
    return _sample_discrepancies(values)[1]


def _check_unit(values) -> None:
    if any(not (0 <= v < 1) for v in values):  # also refuses NaN
        raise ArgumentError("samples must lie in [0, 1)")


@dataclass
class DiscrepancyRow:
    n: int
    d_star: float
    d_extreme: float
    max_eps: float

    def as_csv(self) -> list:
        return [self.n, repr(self.d_star), repr(self.d_extreme), repr(self.max_eps)]


@dataclass
class DiscrepancyReport:
    depth: str
    rows: list[DiscrepancyRow]

    def csv_rows(self) -> list[list]:
        return [["n", "d_star", "d_extreme", "max_eps"]] + [r.as_csv() for r in self.rows]

    def to_json(self) -> dict:
        return {"depth": self.depth, "rows": [asdict(r) for r in self.rows]}


def orbit_discrepancy_report(E, checkpoints, *, depth: int | None = None) -> DiscrepancyReport:
    """Star/extreme discrepancy of the truncated orbit sample (x_m) for
    m < N at each checkpoint N, plus the largest certified truncation error.

    No sample array is held: each orbit block, cut at the checkpoints too,
    is reduced to its sorted values with their counts, which merge at each
    checkpoint into the running groups of equal values. For fixed x,
    fl(fl(i/N) - x) is nondecreasing in i, so a group at sorted indices a..b
    has its largest d_i at b and its smallest at a: the very floats that
    `_sorted_discrepancies` takes its max and min over."""
    cps = check_checkpoints(checkpoints)
    xs, ks = np.empty(0), np.empty(0, dtype=np.int64)
    pending, max_eps, rows = [], 0.0, []
    for _, hi, num, den in _orbit_blocks(E, cps[-1], depth, cps):
        pending.append(_block_groups(num, den))
        max_eps = max(max_eps, float(1.0 / np.min(den)))
        if hi == cps[len(rows)]:
            xs, ks = _merge_groups(xs, ks, pending)
            last = np.cumsum(ks)
            high, low = (last / hi - xs).max(), ((last - ks + 1) / hi - xs).min()
            rows.append(DiscrepancyRow(hi, *_from_extremes(hi, low, high), max_eps))
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
