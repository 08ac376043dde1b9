"""Block statistics: admissible blocks, expected and observed counts, reports.

Expected counts are exact rationals throughout; floats only appear in the
final ratio columns of reports.
"""

from __future__ import annotations

import math
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


def _check_product_width(top: int, k: int) -> None:
    if top**k >= 2**63:
        raise ArgumentError(f"window products of {k} bases up to {top} overflow int64")


def _expected_counts(seq: BasicSequence, block: tuple, checkpoints) -> list[Fraction]:
    """Exact expected counts of `block` at each n of an ascending checkpoint
    list: the sum of 1/(q_i...q_{i+k-1}) over the starts i <= n whose base
    window lies above the block, taken over the classes of starts of
    seq.window_classes grouped by window product."""
    k = len(block)
    first, last, step, windows = seq.window_classes(k, checkpoints[-1])
    top = int(windows.max())
    _check_product_width(top, k)
    keep = np.ones(len(first), dtype=bool)
    for j, d in enumerate(block):
        # a digit may pass int64; one at or above every base keeps no class
        keep &= windows[:, j] > min(d, top)
    prods, group = np.unique(np.prod(windows[keep], axis=1), return_inverse=True)
    first, last, step = first[keep], last[keep], step[keep]
    sums = []
    for n in checkpoints:
        starts = np.zeros(len(prods), dtype=first.dtype)
        np.add.at(starts, group, np.maximum(0, (np.minimum(last, n) - first) // step + 1))
        sums.append(sum((Fraction(int(c), int(v)) for v, c in zip(prods, starts)), Fraction(0)))
    return sums


def expected_count(seq: BasicSequence, block, n: int) -> Fraction:
    """Expected occurrences of `block` among start positions 1..n under
    independent uniform digits: sum of 1/(q_i...q_{i+k-1}) over admissible i."""
    b = _as_block(block)
    check_position(n)
    return _expected_counts(seq, b, [n])[0]


_MAX_CANDIDATES = 10**5


def admissible_blocks(seq: BasicSequence, k: int, n: int) -> list[tuple]:
    """Every length-k block admissible at some start position 1..n, in
    lexicographic order: the blocks with a nonzero expected count.

    A block is admissible at i when it lies below the base window starting
    at i, so marking each window's top corner in the grid of candidates and
    sweeping a suffix OR along every axis marks exactly the admissible ones.
    """
    if k < 1:
        raise ArgumentError(f"block length must be >= 1, got {excerpt(k)}")
    check_position(n)
    # every base is >= 2, so a length-k block has at least 2**k candidates
    if k >= _MAX_CANDIDATES.bit_length():
        raise ArgumentError(
            f"at least 2**k candidate blocks of length k = {excerpt(k)}; out of desk range"
        )
    windows = seq.window_classes(k, n)[3]
    limits = [int(top) for top in windows.max(axis=0)]
    total = math.prod(limits)
    if total > _MAX_CANDIDATES:
        raise ArgumentError(f"{total} candidate blocks of length {k}; out of desk range")
    grid = np.zeros(limits, dtype=bool)
    grid[tuple(windows.astype(np.int64).T - 1)] = True
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
    for b in blocks:
        counts = count_block_checkpoints(E, b, cps)
        for n, obs, exp in zip(cps, counts, _expected_counts(E.seq, b, cps)):
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
    expected = _expected_counts(seq, b, cps) if cps else []
    for n, exp in zip(cps, expected):
        qn = seq.running_max(n)
        scale = n * math.log(qn) / math.log(n)
        value = float(exp) / scale
        rows.append(GrowthRow(n, value, value > best))
        best = max(best, value)
    return GrowthDiagnostic(b, rows)
