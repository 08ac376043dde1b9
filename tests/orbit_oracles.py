"""Reference orbit points for the orbit checks.

`orbit_truncated` evaluates one truncated orbit value exactly, in Python
ints from the stream's prefix; tests compare the library's bulk float routes
with it. `orbit_exact_finite` gives the exact orbit value of a number with
finitely many digits. `sorted_discrepancies` reads the star and extreme
discrepancy of a sorted float sample in one full-length pass.
"""

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from cantornormal import ArgumentError, PartitionIndex, truncation_depth
from cantornormal.errors import excerpt


@dataclass(frozen=True)
class OrbitPoint:
    """A truncated orbit value with its certified truncation error."""

    index: int
    value: Fraction
    eps: Fraction


def orbit_truncated(E, m: int, *, depth: int | None = None) -> OrbitPoint:
    """Exact truncated orbit value at index m with its error bound."""
    if m < 0:
        raise ArgumentError(f"orbit index must be >= 0, got {m}")
    seq = E.seq
    d = truncation_depth(PartitionIndex(seq), m) if depth is None else int(depth)
    if d < 1:
        raise ArgumentError(f"truncation depth must be >= 1, got {excerpt(d)}")
    digits = E.prefix(m + d)
    num, den = 0, 1
    for i in range(1, d + 1):
        q = seq.base_at(m + i)
        num = num * q + int(digits[m + i - 1])
        den *= q
    return OrbitPoint(m, Fraction(num, den), Fraction(1, den))


def orbit_exact_finite(seq, x, m: int) -> Fraction:
    """Exact orbit value at index m for a number with finitely many digits.

    `x` is either a rational in [0, 1) or a finite digit prefix (all later
    digits zero)."""
    if m < 0:
        raise ArgumentError(f"orbit index must be >= 0, got {m}")
    if isinstance(x, Rational):
        value = Fraction(x)
    else:
        value = Fraction(0)
        den = 1
        for i, d in enumerate(x, start=1):
            q = seq.base_at(i)
            den *= q
            if not 0 <= int(d) < q:
                raise ArgumentError(f"digit {d} at position {i} outside 0..{q - 1}")
            value += Fraction(int(d), den)
    for i in range(1, m + 1):
        value *= seq.base_at(i)
    return value % 1


def sorted_discrepancies(xs: np.ndarray) -> tuple[float, float]:
    """Star and extreme discrepancy of a sorted float sample: with
    d_i = i/N - x_(i), max(max d_i, 1/N - min d_i) and 1/N + max d_i - min d_i."""
    n = xs.size
    diffs = np.arange(1, n + 1, dtype=np.float64)
    diffs /= n
    diffs -= xs
    low, high = diffs.min(), diffs.max()
    return float(max(high, 1.0 / n - low)), float(1.0 / n + high - low)
