"""Block statistics: admissibility, expected and observed counts, reports.

Expected counts are exact rationals throughout; floats only appear in the
final ratio columns of reports.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ArgumentError, excerpt
from .kernels import match_mask
from .sequences import BasicSequence, check_checkpoints, check_position


def _as_block(block) -> tuple:
    b = tuple(int(d) for d in block)
    if not b:
        raise ArgumentError("blocks must have at least one digit")
    if any(d < 0 for d in b):
        raise ArgumentError(f"block digits must be non-negative, got {excerpt(b)}")
    return b


def admissible(seq: BasicSequence, block, i: int) -> int:
    """1 if `block` can occur starting at position i, else 0."""
    b = _as_block(block)
    check_position(i)
    for j, d in enumerate(b):
        if d >= seq.base_at(i + j):
            return 0
    return 1


def _check_product_width(top: int, k: int) -> None:
    if top**k >= 2**63:
        raise ArgumentError(f"window products of {k} bases up to {top} overflow int64")


def _window_masses(bases: np.ndarray, block: tuple, n: int):
    """Admissibility mask over start positions 1..n plus the window products
    q_i * ... * q_{i+k-1}, from bases of positions 1 through at least n+k-1."""
    _check_product_width(int(bases.max(initial=1)), len(block))
    mask = np.ones(n, dtype=bool)
    prods = np.ones(n, dtype=np.int64)
    for j, d in enumerate(block):
        span = bases[j : j + n]
        mask &= span > d
        prods *= span
    return mask, prods


def _mass_sums(mask: np.ndarray, prods: np.ndarray, checkpoints) -> list[Fraction]:
    """Exact sums of 1/prods over the masked starts i <= n, one per n of an
    ascending checkpoint list, accumulated in one pass."""
    sums = []
    total = Fraction(0)
    lo = 0
    for n in checkpoints:
        values, counts = np.unique(prods[lo:n][mask[lo:n]], return_counts=True)
        for v, c in zip(values, counts):
            total += Fraction(int(c), int(v))
        sums.append(total)
        lo = n
    return sums


def _array_expected_counts(bases: np.ndarray, block: tuple, checkpoints) -> list[Fraction]:
    return _mass_sums(*_window_masses(bases, block, checkpoints[-1]), checkpoints)


def _run_expected_counts(runs, block: tuple, checkpoints) -> list[Fraction]:
    """_array_expected_counts in closed form over the constant-base runs
    (start, stop, base) of a nondecreasing sequence, covering positions 1
    through at least n+k-1 for the last checkpoint n.

    A start whose window lies wholly in a run of base c adds c**-k when
    every block digit is below c; only the k-1 starts before each run's
    stop need their window's product.
    """
    k, top, last = len(block), max(block), checkpoints[-1]
    _check_product_width(runs[-1][2], k)
    starts = [s for s, _, _ in runs]

    def base(p: int) -> int:
        return runs[bisect_right(starts, p) - 1][2]

    pieces = []  # (first start, last start, mass of each start)
    for start, stop, c in runs:
        if stop - k >= start and top < c:
            pieces.append((start, stop - k, Fraction(1, c**k)))
        for i in range(max(start, stop - k + 1), min(stop, last + 1)):
            window = [base(i + j) for j in range(k)]
            if all(d < q for d, q in zip(block, window)):
                pieces.append((i, i, Fraction(1, math.prod(window))))
    return [sum(((min(hi, n) - lo + 1) * mass for lo, hi, mass in pieces if lo <= n),
                Fraction(0))
            for n in checkpoints]


def _expected_counter(seq: BasicSequence, hi: int):
    """A function (block, ascending checkpoints) -> exact expected counts at
    each checkpoint, for blocks and checkpoints whose windows end by
    position hi. It reads the bases of positions 1..hi once: as runs of
    constant base on a nondecreasing sequence, else as one array."""
    if seq.nondecreasing:
        runs = seq.base_runs(1, hi)
        return lambda block, checkpoints: _run_expected_counts(runs, block, checkpoints)
    bases = seq.bases(1, hi)
    return lambda block, checkpoints: _array_expected_counts(bases, block, checkpoints)


def expected_count(seq: BasicSequence, block, n: int) -> Fraction:
    """Expected occurrences of `block` among start positions 1..n under
    independent uniform digits: sum of 1/(q_i...q_{i+k-1}) over admissible i."""
    b = _as_block(block)
    check_position(n)
    return _expected_counter(seq, n + len(b) - 1)(b, [n])[0]


_MAX_CANDIDATES = 10**5


def _check_candidates(limits: list[int], k: int) -> None:
    total = math.prod(limits)
    if total > _MAX_CANDIDATES:
        raise ArgumentError(f"{total} candidate blocks of length {k}; out of desk range")


def admissible_blocks(seq: BasicSequence, k: int, n: int) -> list[tuple]:
    """Every length-k block admissible at some start position 1..n, in
    lexicographic order: the blocks with a nonzero expected count.

    On a nondecreasing sequence a block admissible at some i <= n is also
    admissible at n, so these are the blocks below the base window at n.
    Otherwise a block is admissible at i when it lies below the base window
    starting at i, so marking each window's top corner in the grid of
    candidates and sweeping a suffix OR along every axis marks exactly the
    admissible ones.
    """
    if k < 1:
        raise ArgumentError(f"block length must be >= 1, got {excerpt(k)}")
    check_position(n)
    # every base is >= 2, so a length-k block has at least 2**k candidates
    if k >= _MAX_CANDIDATES.bit_length():
        raise ArgumentError(
            f"at least 2**k candidate blocks of length k = {excerpt(k)}; out of desk range"
        )
    if seq.nondecreasing:
        limits = seq.bases(n, n + k - 1).tolist()
        _check_candidates(limits, k)
        return list(itertools.product(*map(range, limits)))
    bases = seq.bases(1, n + k - 1)
    limits = [int(bases[j : j + n].max()) for j in range(k)]
    _check_candidates(limits, k)
    grid = np.zeros(limits, dtype=bool)
    grid[tuple(bases[j : j + n] - 1 for j in range(k))] = True
    for axis in range(k):
        grid = np.flip(np.logical_or.accumulate(np.flip(grid, axis), axis), axis)
    return [tuple(b) for b in np.argwhere(grid).tolist()]


def count_block_checkpoints(E, block, checkpoints) -> list[int]:
    """Occurrences of `block` with start position <= n in the digit stream,
    for each checkpoint n in the order given, from one scan.

    An occurrence is counted at its start even if it extends past n, so the
    stream must reach position n + len(block) - 1.
    """
    b = _as_block(block)
    cps = [int(n) for n in checkpoints]
    top = check_checkpoints(cps)[-1]
    digits = E.prefix(top + len(b) - 1)
    positions = np.flatnonzero(match_mask(digits, b, top)) + 1
    return [int(np.searchsorted(positions, n, side="right")) for n in cps]


@dataclass
class BlockCountRow:
    block: tuple
    n: int
    observed: int
    expected: Fraction
    ratio: float | None

    def as_csv(self) -> list:
        return [
            format_block(self.block),
            self.n,
            self.observed,
            self.expected.numerator,
            self.expected.denominator,
            "" if self.ratio is None else repr(self.ratio),
        ]


@dataclass
class ConvergenceReport:
    """Observed/expected block counts, one row per block and checkpoint in
    block order. The JSON form adds each block's expected counts and the
    observed-count ratios of every pair of equal-length blocks."""

    checkpoints: list[int]
    rows: list[BlockCountRow] = field(default_factory=list)

    def csv_rows(self) -> list[list]:
        header = ["block", "n", "observed", "expected_num", "expected_den", "ratio"]
        return [header] + [r.as_csv() for r in self.rows]

    def to_json(self) -> dict:
        m = len(self.checkpoints)
        by_block = [self.rows[i : i + m] for i in range(0, len(self.rows), m)]
        return {
            "rows": [
                {
                    "block": list(r.block),
                    "n": r.n,
                    "observed": r.observed,
                    "expected": f"{r.expected.numerator}/{r.expected.denominator}",
                    "ratio": r.ratio,
                }
                for r in self.rows
            ],
            "pairs": [
                {
                    "block_a": list(ra.block),
                    "block_b": list(rb.block),
                    "n": ra.n,
                    "ratio": None if rb.observed == 0 else ra.observed / rb.observed,
                }
                for i, a in enumerate(by_block)
                for b in by_block[i + 1 :]
                if len(a[0].block) == len(b[0].block)
                for ra, rb in zip(a, b)
            ],
            "expected_growth": {
                format_block(g[0].block): [f"{r.expected.numerator}/{r.expected.denominator}"
                                           for r in g]
                for g in by_block
            },
        }


_MAX_JSON_PAIRS = 10**6


def check_pair_count(blocks, checkpoints) -> None:
    """Refuse blocks and checkpoints whose JSON report would hold more than
    _MAX_JSON_PAIRS pair rows: one per equal-length block pair and checkpoint."""
    per_length = Counter(len(b) for b in blocks)
    pairs = sum(m * (m - 1) // 2 for m in per_length.values())
    total = pairs * len(set(checkpoints))
    if total > _MAX_JSON_PAIRS:
        raise ArgumentError(f"{total} block-pair rows in a JSON report; out of desk range")


def format_block(block) -> str:
    return "-".join(str(d) for d in block)


def parse_block(text: str) -> tuple:
    """A block from comma- or dash-separated digits. An empty field, as in
    `-1` or `0,,1`, is refused, and so is a digit of 2**63 or more, since
    digit arrays are int64."""
    try:
        block = tuple(int(d) for d in text.replace("-", ",").split(","))
    except ValueError as exc:
        raise ArgumentError(f"bad block {excerpt(text)}") from exc
    if any(d >= 2**63 for d in block):
        raise ArgumentError(f"block digits must be below 2**63, got {excerpt(text)}")
    return block


def normality_report(E, blocks, checkpoints) -> ConvergenceReport:
    """Observed/expected counts per block and checkpoint.

    A zero expected count yields a None ratio rather than an error.
    """
    blocks = [_as_block(b) for b in blocks]
    cps = check_checkpoints(checkpoints)
    report = ConvergenceReport(cps)
    expected_counts = _expected_counter(E.seq, cps[-1] + max(map(len, blocks), default=1) - 1)
    for b in blocks:
        counts = count_block_checkpoints(E, b, cps)
        for n, obs, exp in zip(cps, counts, expected_counts(b, cps)):
            ratio = None if exp == 0 else obs / float(exp)
            report.rows.append(BlockCountRow(b, n, obs, exp, ratio))
    return report


@dataclass
class GrowthRow:
    n: int
    value: float
    nondecreasing_so_far: bool


@dataclass
class GrowthDiagnostic:
    """Desk-scale trend check of expected-count growth against n*log q(n)/log n.

    The comparison is heuristic: an increasing trend over finitely many
    checkpoints is evidence, not proof, that the growth hypothesis holds.
    """

    block: tuple
    rows: list[GrowthRow]
    label: str = "heuristic"

    @property
    def increasing(self) -> bool:
        """Strictly increasing over at least two rows."""
        values = [r.value for r in self.rows]
        return len(values) >= 2 and all(b > a for a, b in zip(values, values[1:]))

    def csv_rows(self) -> list[list]:
        rows = [["block", "n", "value", "nondecreasing_so_far"]]
        rows += [[format_block(self.block), r.n, repr(r.value), r.nondecreasing_so_far]
                 for r in self.rows]
        rows.append(["trend", "", "increasing" if self.increasing else "flat", self.label])
        return rows

    def to_json(self) -> dict:
        return {
            "block": list(self.block),
            "rows": [
                {"n": r.n, "value": r.value, "nondecreasing": r.nondecreasing_so_far}
                for r in self.rows
            ],
            "increasing_trend": self.increasing,
            "label": self.label,
        }


def growth_diagnostic(seq: BasicSequence, block, checkpoints) -> GrowthDiagnostic:
    """Evaluate expected_count(n) / (n * log q(n) / log n) along a checkpoint
    ladder. n = 1 is skipped (log 1 = 0)."""
    b = _as_block(block)
    rows: list[GrowthRow] = []
    best = -math.inf
    cps = [n for n in check_checkpoints(checkpoints) if n > 1]
    expected = _expected_counter(seq, cps[-1] + len(b) - 1)(b, cps) if cps else []
    for n, exp in zip(cps, expected):
        qn = seq.running_max(n)
        scale = n * math.log(qn) / math.log(n)
        value = float(exp) / scale
        rows.append(GrowthRow(n, value, value > best))
        best = max(best, value)
    return GrowthDiagnostic(b, rows)
