"""Exception hierarchy with machine-readable codes for the CLI."""


class CantorSeriesError(Exception):
    """Base class; `code` is the machine-readable error category."""

    code = "error"


class ArgumentError(CantorSeriesError, ValueError):
    code = "argument"


class InsufficientDigitsError(ArgumentError):
    code = "insufficient-digits"


class ScanBoundError(CantorSeriesError):
    """A forward scan (ladder index, schedule threshold) exceeded its bound."""

    code = "scan-bound"


class CounterSpillError(CantorSeriesError):
    """Too many distinct base windows tracked by the occurrence counters."""

    code = "counter-spill"


class RefinementError(CantorSeriesError):
    """Base conversion could not certify a digit within the refinement cap."""

    code = "refinement"


def shorten(text: str) -> str:
    """`text` cut to its first 60 characters: error messages quote user input
    through this, so a huge input cannot flood stderr."""
    return text if len(text) <= 60 else text[:57] + "..."


def excerpt(value) -> str:
    """The repr of `value`, shortened as `shorten` does."""
    return shorten(repr(value))
