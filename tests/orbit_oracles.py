"""Reference orbit points for the orbit checks.

`orbit_truncated` evaluates one truncated orbit value exactly, in Python
ints from the stream's prefix; tests compare the library's bulk float routes
with it.
"""

from dataclasses import dataclass
from fractions import Fraction

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
