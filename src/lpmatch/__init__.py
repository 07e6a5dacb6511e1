"""Rank candidates by Minkowski-metric closeness of distance profiles.

The library models unit-tagged distance profiles, the Lp metric family
(L1, L2, general Ln and the exact L-infinity), candidate-by-reference
distance tables, deterministic nearest-profile rankings with relative-error
and gap statistics, and document rendering.

The paper's complete built-in analysis of 24 Campo de Montiel localities
against four reference points lives in ``lpmatch.paper``.  Its public names
are resolved here on first use (PEP 562), so ``import lpmatch`` does not load
it.
"""

from .analysis import (
    BUILTIN_SOLUTIONS,
    CLASSIC_SOLUTION,
    REFINED_SOLUTION,
    STANDARD_METRICS,
    GapRecord,
    GapReport,
    RankingEntry,
    SolutionProfile,
    gap_report,
    rank_candidates,
    relative_error_percent,
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
    FORMATS,
    TARGET_LABEL,
    RenderedTable,
    build_ranking_table,
    format_2dp,
)

__version__ = "0.1.0"

# the public names of ``paper``, loaded on first use
_PAPER_NAMES = frozenset({
    "Configuration", "SweepResult", "FamilyStats", "GridSummary", "GRID_REFERENCE_SUBSETS",
    "sweep", "run_builtin_grid", "summarize_conclusions", "ExternalResultRow",
    "EXTERNAL_ERROR_ROWS", "build_error_table", "build_gap_table", "build_summary_table",
    "build_document_set", "write_document_set",
})


def __getattr__(name: str):
    if name in _PAPER_NAMES:
        from . import paper

        return getattr(paper, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
