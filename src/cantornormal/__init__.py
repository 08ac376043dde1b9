"""Constructive normal numbers for Cantor series expansions.

Digit-by-digit construction of a number whose block statistics and orbit
distribution both match the uniform model for a given sequence of bases,
plus digit transforms with deliberately lopsided behaviour and the exact
statistics needed to verify either claim at desk scale.

Importing the package loads no submodule and no numpy: each exported name
imports its defining module on first access.
"""

from importlib import import_module

__version__ = "0.1.0"

# the kinds of transforms.UDSource, kept here so that the CLI can offer them
# as --ud choices without loading numpy
UD_KINDS = ("vdc", "farey")

# defining module -> the names the package exports from it
_EXPORTS = {
    "digitseq": ("DigitSequence", "constructed_digits", "finite_digits"),
    "errors": (
        "ArgumentError",
        "CantorSeriesError",
        "CounterSpillError",
        "InsufficientDigitsError",
        "RefinementError",
        "ScanBoundError",
    ),
    "generator": ("digit_at", "digit_stream", "generate_digits"),
    "ladder": ("PartitionIndex", "block_from_index"),
    "orbit": (
        "DiscrepancyReport",
        "orbit_discrepancy_report",
        "extreme_discrepancy",
        "orbit_values",
        "star_discrepancy",
        "truncation_depth",
    ),
    "sequences": (
        "BasicSequence",
        "ConstantSequence",
        "IndexLogSequence",
        "PeriodicSequence",
        "PointwiseSequence",
        "PresetSequence",
        "TableSequence",
        "parse_sequence_spec",
        "sequence_from_json",
    ),
    "stats": (
        "ConvergenceReport",
        "admissible_blocks",
        "count_block_checkpoints",
        "expected_count",
        "growth_diagnostic",
        "normality_report",
    ),
    "transforms": (
        "Schedule",
        "UDSource",
        "build_orbit_sink",
        "build_patched_uniform",
        "build_half_range",
        "clip_digits",
    ),
    "values": ("CertifiedInterval", "prefix_value", "to_base_b"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
