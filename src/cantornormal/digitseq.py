"""Lazily materialized digit sequences declared against a basic sequence."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ArgumentError, InsufficientDigitsError, excerpt
from .generator import generate_digits, window_digits
from .ladder import PartitionIndex
from .sequences import BasicSequence, check_length, check_position


class DigitSequence:
    """A digit stream w.r.t. a basic sequence, materialized on demand.

    The source callable maps a requested length to the array of that many
    leading digits; results are cached and only ever grow. `description`
    is a JSON-serializable record of how the stream was built, which
    `construct` writes as the `graph` of its manifest. Checks read the
    bases from `seq` and the digits through `prefix` or `window`.

    Every stream also passes `window(lo, hi, out)`, which writes the digits
    at positions lo + 1..hi into `out`; `window` reads through it alone.
    """

    def __init__(
        self,
        seq: BasicSequence,
        source: Callable[[int], np.ndarray],
        description: dict,
        *,
        window: Callable[[int, int, np.ndarray], None],
    ):
        self.seq = seq
        self._source = source
        self._window = window
        self.description = description
        self._buf = np.empty(0, dtype=np.int64)

    def prefix(self, n: int) -> np.ndarray:
        """Digits at positions 1..n (a read-only view)."""
        if n < 0:
            raise ArgumentError(f"prefix length must be >= 0, got {excerpt(n)}")
        check_length(n)
        if n > self._buf.size:
            grow = max(n, 2 * self._buf.size, 64)
            try:
                fresh = np.asarray(self._source(grow), dtype=np.int64)
            except InsufficientDigitsError:
                fresh = np.asarray(self._source(n), dtype=np.int64)
            self._buf = fresh
        view = self._buf[:n]
        view.flags.writeable = False
        return view

    def window(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Digits at positions lo + 1..hi, written into `out` if given (else
        a new array). A read past a finite stream's end, or past what an
        int64 array can address, is refused as `prefix(hi)` refuses it."""
        if not 0 <= lo <= hi:
            raise ArgumentError(f"a window needs 0 <= lo <= hi, got {excerpt((lo, hi))}")
        check_length(hi)
        if out is None:
            out = np.empty(hi - lo, dtype=np.int64)
        self._window(lo, hi, out)
        return out

    def digit(self, n: int) -> int:
        check_position(n)
        return int(self.prefix(n)[n - 1])


def constructed_digits(seq: BasicSequence) -> DigitSequence:
    """The cycling construction's digit stream over `seq`; it decodes any
    window alone (generator.window_digits)."""
    pi = PartitionIndex(seq)
    return DigitSequence(
        seq,
        lambda n: generate_digits(seq, n),
        {"op": "construct", "seq": seq.to_json()},
        window=lambda lo, hi, out: window_digits(pi, lo, hi, out),
    )


def check_digit_range(digits: np.ndarray, bases: np.ndarray) -> None:
    """Refuse the first digit outside 0..base-1 of its position."""
    bad = np.flatnonzero((digits < 0) | (digits >= bases))
    if bad.size:
        i = int(bad[0])
        raise ArgumentError(
            f"digit {excerpt(int(digits[i]))} at position {i + 1} outside 0..{int(bases[i]) - 1}"
        )


def finite_digits(seq: BasicSequence, digits) -> DigitSequence:
    """A finite, explicit digit list; reading past the end is an error."""
    digits = list(digits)
    try:
        arr = np.asarray(digits, dtype=np.int64)
    except OverflowError:
        # every base is below 2**63, so the range check refuses a digit past int64
        arr = np.asarray(digits, dtype=object)
    check_digit_range(arr, seq.bases(1, arr.size))

    def source(n: int) -> np.ndarray:
        if n > arr.size:
            raise InsufficientDigitsError(
                f"finite digit list has {arr.size} digits, need {n}"
            )
        return arr

    def window(lo: int, hi: int, out: np.ndarray) -> None:
        out[:] = source(hi)[lo:hi]

    return DigitSequence(seq, source, {"op": "literal", "seq": seq.to_json(), "count": arr.size},
                         window=window)
