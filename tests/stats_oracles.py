"""Reference counts restricted to single base windows.

`starred_variants` counts, exactly, the expected and observed occurrences of
a block that fit inside one window of the construction; tests bound the full
counts of `stats` against them.
"""

from fractions import Fraction

import numpy as np

from cantornormal import PartitionIndex
from cantornormal.kernels import match_mask
from cantornormal.sequences import check_position
from cantornormal.stats import _as_block, _mass_sums, _window_masses


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
