"""Exact value extraction: certified intervals and proven base-b digits.

Every quantity here is an exact rational. A digit prefix of length m pins
the represented number inside an interval of width exactly
1/(q_1*...*q_m); base-b digits are emitted only once both interval
endpoints agree on them, so each emitted digit is proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digitseq import DigitSequence, check_digit_range
from .errors import ArgumentError, InsufficientDigitsError, RefinementError, excerpt
from .sequences import BasicSequence

DEFAULT_REFINE_CAP = 64
# spans below this many digits are combined or split by a plain loop
_LEAF = 32


@dataclass(frozen=True)
class CertifiedInterval:
    """lower <= x <= upper with width equal to the remaining digit mass."""

    lower: Fraction
    upper: Fraction

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


def prefix_value(seq: BasicSequence, digits) -> CertifiedInterval:
    """The interval pinned down by an explicit digit prefix."""
    digits = np.asarray(digits, dtype=np.int64)
    bases = seq.bases(1, digits.size)
    check_digit_range(digits, bases)
    num, den = mixed_radix(digits, bases)
    return CertifiedInterval(Fraction(num, den), Fraction(num + 1, den))


def mixed_radix(digits: np.ndarray, bases: np.ndarray) -> tuple[int, int]:
    """(num, den) with den = q_1*...*q_m and num/den = sum_i d_i/(q_1*...*q_i),
    formed by splitting the span in halves so the big products stay balanced."""
    d, q = digits.tolist(), bases.tolist()

    def span(lo: int, hi: int) -> tuple[int, int]:
        if hi - lo <= _LEAF:
            num, den = 0, 1
            for i in range(lo, hi):
                num = num * q[i] + d[i]
                den *= q[i]
            return num, den
        mid = (lo + hi) // 2
        num1, den1 = span(lo, mid)
        num2, den2 = span(mid, hi)
        return num1 * den2 + num2, den1 * den2

    return span(0, len(d))


def base_digits(v: int, base: int, count: int) -> list[int]:
    """The `count` low base-b digits of v, most significant first, split off
    by divmod with base**(2**j) (Brent & Zimmermann, Modern Computer
    Arithmetic, 1.7); never goes through int-to-str and its 4300-digit limit."""
    powers = [base]  # powers[j] = base**(2**j)
    while 1 << len(powers) < count:
        powers.append(powers[-1] ** 2)
    out: list[int] = []

    def emit(v: int, width: int) -> None:
        if width <= _LEAF:
            chunk = [0] * width
            for i in range(width - 1, -1, -1):
                v, chunk[i] = divmod(v, base)
            out.extend(chunk)
            return
        j = (width - 1).bit_length() - 1  # largest 2**j below width
        high, low = divmod(v, powers[j])
        emit(high, width - (1 << j))
        emit(low, 1 << j)

    emit(v, count)
    return out


def to_base_b(E: DigitSequence, base: int, count: int) -> list[int]:
    """The first `count` base-b digits of the number behind the stream.

    A digit is emitted once both endpoints of the prefix interval agree on
    it, so every digit is proven. Stream digits are consumed as needed, at
    most DEFAULT_REFINE_CAP fresh ones per output digit before giving up
    (the number may sit exactly on a base-b boundary, which no finite
    refinement can decide).

    The digits come from one certified pass: the prefix grows in steps of
    (DEFAULT_REFINE_CAP + 1) // 2 stream digits, each step counting the
    leading digits its endpoints share, until all `count` agree; they are
    then split off one big integer. Running out of the cap needs that count
    to stay flat over cap + 1 consecutive prefix lengths, which hold two
    step ends; only where a step shows no rise, or would pass the end of a
    finite stream, is the prefix walked one stream digit at a time. So the
    digits, and any RefinementError with its message, are those of
    consuming one stream digit at a time, and a stream too short for that
    raises InsufficientDigitsError here as well.
    """
    if base < 2:
        raise ArgumentError(f"output base must be >= 2, got {excerpt(base)}")
    if count < 1:
        raise ArgumentError(f"digit count must be >= 1, got {excerpt(count)}")
    refine_cap = DEFAULT_REFINE_CAP
    step = (refine_cap + 1) // 2

    def extend(p: _Prefix, m: int) -> _Prefix:
        # E.prefix raises InsufficientDigitsError past a finite stream's end
        num, den = mixed_radix(E.prefix(m)[p.m :], E.seq.bases(p.m + 1, m))
        return _Prefix(m, p.num * den + num, p.den * den, base, count)

    def stuck(p: _Prefix, m: int) -> RefinementError:
        return RefinementError(
            f"digit {p.certified + 1} in base {base} still ambiguous after "
            f"{m} stream digits; the value may lie on a base boundary"
        )

    cur = _Prefix(0, 0, 1, base, count)
    last = None  # the previous prefix evaluated; it certifies fewer digits than cur
    while cur.certified < count:
        try:
            nxt = extend(cur, cur.m + step)
        except InsufficientDigitsError:
            nxt = None
        if nxt is not None and nxt.certified > cur.certified:
            last, cur = cur, nxt
            continue
        # No rise over one step (or the stream ended inside it). Find where
        # the one-digit-at-a-time refinement started waiting for digit
        # cur.certified + 1, then walk on from cur until the count rises or
        # refine_cap digits have been spent on it.
        start = cur
        if last is not None:
            start = last
            while start.certified < cur.certified:
                start = extend(start, start.m + 1)
        walk = cur
        while walk.certified == cur.certified and walk.m < start.m + refine_cap:
            last, walk = walk, extend(walk, walk.m + 1)
        if walk.certified == cur.certified:
            raise stuck(cur, start.m + refine_cap)
        cur = walk
    return base_digits(cur.num * base**count // cur.den, base, count)


class _Prefix:
    """A stream prefix of length m: the value lies in [num/den, (num+1)/den].
    `certified` is how many leading base-b digits (up to count) the two
    endpoints share."""

    __slots__ = ("m", "num", "den", "certified")

    def __init__(self, m: int, num: int, den: int, base: int, count: int):
        self.m, self.num, self.den = m, num, den
        # a shared digit t needs den > base**t, so no more than `top` can agree
        top = min(count, int(den.bit_length() / math.log2(base)) + 1)
        scale = base**top
        lo, rem = divmod(num * scale, den)
        hi = lo + (rem + scale) // den
        while top > 0 and lo != hi:
            lo //= base
            hi //= base
            top -= 1
        self.certified = top


def format_digits(digits, base: int) -> str:
    """Render extracted digits; contiguous for small bases, dotted otherwise."""
    if base <= 10:
        return "".join(str(d) for d in digits)
    return ".".join(str(d) for d in digits)
