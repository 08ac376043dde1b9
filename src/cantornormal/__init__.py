"""Constructive normal numbers for Cantor series expansions.

Digit-by-digit construction of a number whose block statistics and orbit
distribution both match the uniform model for a given sequence of bases,
plus digit transforms with deliberately lopsided behaviour and the exact
statistics needed to verify either claim at desk scale.
"""

from .digitseq import DigitSequence, constructed_digits, finite_digits
from .errors import (
    ArgumentError,
    CantorSeriesError,
    CounterSpillError,
    InsufficientDigitsError,
    RefinementError,
    ScanBoundError,
)
from .generator import digit_at, digit_stream, generate_digits
from .ladder import PartitionIndex, block_from_index
from .orbit import (
    DiscrepancyReport,
    orbit_discrepancy_report,
    extreme_discrepancy,
    orbit_values,
    star_discrepancy,
    truncation_depth,
)
from .sequences import (
    BasicSequence,
    ConstantSequence,
    IndexLogSequence,
    PeriodicSequence,
    PointwiseSequence,
    PresetSequence,
    TableSequence,
    parse_sequence_spec,
    sequence_from_json,
)
from .stats import (
    ConvergenceReport,
    admissible,
    admissible_blocks,
    count_block_checkpoints,
    expected_count,
    growth_diagnostic,
    normality_report,
)
from .transforms import (
    Schedule,
    UDSource,
    build_orbit_sink,
    build_patched_uniform,
    build_half_range,
    clip_digits,
)
from .values import CertifiedInterval, prefix_value, to_base_b

__version__ = "0.1.0"
