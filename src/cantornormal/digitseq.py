"""Lazily materialized digit sequences declared against a basic sequence."""

from __future__ import annotations

import logging
from typing import Callable

import numpy as np

from .errors import ArgumentError, InsufficientDigitsError, excerpt
from .generator import generate_digits
from .sequences import BasicSequence, check_length, check_position

log = logging.getLogger("cantornormal")


class DigitSequence:
    """A digit stream w.r.t. a basic sequence, materialized on demand.

    The source callable maps a requested length to the array of that many
    leading digits; results are cached and only ever grow. `description`
    is a JSON-serializable record of how the stream was built, which
    `construct` writes as the `graph` of its manifest. Checks read the
    bases from `seq` and the digits only through `prefix`.
    """

    def __init__(
        self, seq: BasicSequence, source: Callable[[int], np.ndarray], description: dict
    ):
        self.seq = seq
        self._source = source
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
            if fresh.size < n:
                raise InsufficientDigitsError(
                    f"digit source provided {fresh.size} digits, need {n}"
                )
            self._buf = fresh
        view = self._buf[:n]
        view.flags.writeable = False
        return view

    def digit(self, n: int) -> int:
        check_position(n)
        return int(self.prefix(n)[n - 1])


def constructed_digits(seq: BasicSequence) -> DigitSequence:
    """The cycling construction's digit stream over `seq`."""
    return DigitSequence(
        seq,
        lambda n: generate_digits(seq, n),
        {"op": "construct", "seq": seq.to_json()},
    )


def check_digit_range(digits: np.ndarray, bases: np.ndarray) -> None:
    """Refuse the first digit outside 0..base-1 of its position."""
    bad = np.flatnonzero((digits < 0) | (digits >= bases))
    if bad.size:
        i = int(bad[0])
        raise ArgumentError(
            f"digit {int(digits[i])} at position {i + 1} outside 0..{int(bases[i]) - 1}"
        )


def finite_digits(seq: BasicSequence, digits) -> DigitSequence:
    """A finite, explicit digit list; reading past the end is an error."""
    arr = np.asarray(list(digits), dtype=np.int64)
    check_digit_range(arr, seq.bases(1, arr.size))

    def source(n: int) -> np.ndarray:
        if n > arr.size:
            raise InsufficientDigitsError(
                f"finite digit list has {arr.size} digits, need {n}"
            )
        return arr

    return DigitSequence(seq, source, {"op": "literal", "seq": seq.to_json(), "count": arr.size})
