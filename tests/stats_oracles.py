"""Array oracles for block statistics.

`admissible` checks one block at one start position against its bases.
`array_expected_counts` sums expected counts from length-n masks and window
products, position by position, and `array_admissible_blocks` lists the
blocks below each start's window; tests compare the class-of-starts path of
`stats` with them. `starred_variants` counts, exactly, the expected and
observed occurrences of a block that fit inside one window of the
construction; tests bound the full counts of `stats` against them.
"""

import itertools
from fractions import Fraction

import numpy as np

from cantornormal import PartitionIndex
from cantornormal.kernels import match_mask
from cantornormal.sequences import check_position
from cantornormal.stats import _as_block, _check_product_width


def admissible(seq, block, i: int) -> int:
    """1 if `block` can occur starting at position i, else 0."""
    b = _as_block(block)
    check_position(i)
    return int(all(d < seq.base_at(i + j) for j, d in enumerate(b)))


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


def array_expected_counts(bases: np.ndarray, block: tuple, checkpoints) -> list[Fraction]:
    """Expected counts of `block` at each ascending checkpoint, from the bases
    of positions 1 through at least the last checkpoint + len(block) - 1."""
    return _mass_sums(*_window_masses(bases, block, checkpoints[-1]), checkpoints)


def array_admissible_blocks(bases: np.ndarray, k: int, n: int) -> list[tuple]:
    """Every length-k block below the base window of some start 1..n, in
    lexicographic order, from the bases of positions 1 through n+k-1."""
    windows = {tuple(bases[i : i + k].tolist()) for i in range(n)}
    return sorted({b for w in windows for b in itertools.product(*map(range, w))})


def window_end_positions(index: PartitionIndex, n: int) -> np.ndarray:
    """For each start position 1..n, the last position of its window."""
    ends = np.empty(n, dtype=np.int64)
    r = 1
    while True:
        lo, hi = index.region(r)
        if lo >= n:
            break
        if hi > lo:
            span_top = min(hi, n)
            pos = np.arange(lo + 1, span_top + 1, dtype=np.int64)
            ends[lo:span_top] = lo + ((pos - lo - 1) // r + 1) * r
        r += 1
    return ends


def starred_variants(E, block, n: int) -> tuple[Fraction, int]:
    """Expected and observed counts restricted to occurrences that fit
    entirely inside a single base window."""
    b = _as_block(block)
    check_position(n)
    k, seq = len(b), E.seq
    mask, prods = _window_masses(seq.bases(1, n + k - 1), b, n)
    ends = window_end_positions(PartitionIndex(seq), n)
    inside = np.arange(1, n + 1, dtype=np.int64) + (k - 1) <= ends
    q_star = _mass_sums(mask & inside, prods, [n])[0]
    digits = E.prefix(n + k - 1)
    n_star = int((match_mask(digits, b, n) & inside).sum())
    return q_star, n_star
