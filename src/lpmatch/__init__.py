"""Rank candidates by Minkowski-metric closeness of distance profiles.

The library models unit-tagged distance profiles, the Lp metric family
(L1, L2, general Ln and the exact L-infinity), candidate-by-reference
distance tables, deterministic nearest-profile rankings with relative-error
and gap statistics, and document rendering for the complete built-in
analysis of 24 Campo de Montiel localities against four reference points.
"""

from .analysis import (
    BUILTIN_SOLUTIONS,
    CLASSIC_SOLUTION,
    REFINED_SOLUTION,
    STANDARD_METRICS,
    Configuration,
    FamilyStats,
    GapRecord,
    GapReport,
    GridSummary,
    RankingEntry,
    SolutionProfile,
    SweepResult,
    gap_report,
    rank_candidates,
    relative_error_percent,
    run_builtin_grid,
    summarize_conclusions,
    sweep,
    target_profile,
    top_k,
)
from .core import (
    DEFAULT_RATES,
    ConversionRates,
    MetricSpec,
    Profile,
    Unit,
    convert,
    fold_name,
    magnitude,
    metric_distance,
)
from .dataset import (
    REFERENCES,
    DistanceTable,
    builtin_table,
    normalize_name,
    parse_table,
    serialize_table,
    subset_references,
)
from .errors import InvalidValue, LpmatchError, ParseError
from .report import (
    EXTERNAL_ERROR_ROWS,
    FORMATS,
    TARGET_LABEL,
    ExternalResultRow,
    RenderedTable,
    build_error_table,
    build_gap_table,
    build_ranking_table,
    build_summary_table,
    format_2dp,
    write_document_set,
)

__version__ = "0.1.0"
