"""The paper's analysis: the 24-configuration grid and its 29 documents.

The grid ranks the 24 built-in localities against the classic and refined
solutions, in kilometers and in hours, over all four references and over
the three without Munera, under L_inf, L_1 and L_2.  ``sweep`` evaluates a
cross-product of configurations on the built-in tables,
``summarize_conclusions`` condenses it into headline facts,
``build_document_set`` builds the numbered documents, next to the
comparison rows of earlier published analyses (``EXTERNAL_ERROR_ROWS``),
and ``write_document_set`` renders them in one format and writes them.

Nothing in the ranking library imports this module.  ``lpmatch`` resolves its
names on first use, and the CLI imports it in ``sweep`` and ``reproduce``
only, so ranking a table of one's own never compiles it.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from collections.abc import Mapping, Sequence

from . import _PAPER_NAMES
from .analysis import (
    CLASSIC_SOLUTION,
    REFINED_SOLUTION,
    STANDARD_METRICS,
    SolutionProfile,
    _percent,
    _rank_family,
    target_profile,
)
from .core import (
    DEFAULT_RATES, ConversionRates, MetricSpec, Unit, _Checked, _check_kind, _coerce, _elements,
    _names, _shown,
)
from .dataset import REFERENCES, builtin_table, subset_references
from .errors import InvalidValue
from .report import (
    RenderedTable,
    build_dataset_table,
    build_ranking_table,
    format_2dp,
    ranking_title,
)

__all__ = sorted(_PAPER_NAMES)  # the names that ``lpmatch`` resolves on first use


class Configuration(_Checked, namedtuple("Configuration", "solution unit references metric")):
    """One cell of the analysis grid."""

    __slots__ = ()

    def __new__(cls, solution: SolutionProfile, unit: Unit, references: Sequence[str],
                metric: MetricSpec) -> "Configuration":
        references = _names(references, "configuration references must be an iterable of names")
        return super().__new__(cls, solution, unit, references, metric)

    def __post_init__(self) -> None:
        _check_kind(self.solution, SolutionProfile,
                    "configuration solution must be a SolutionProfile")
        _check_kind(self.unit, Unit, "configuration unit must be a Unit")
        _check_kind(self.metric, MetricSpec, "configuration metric must be a MetricSpec")
        if self.unit is Unit.JORNADAS:
            raise InvalidValue("data tables exist in kilometers and hours, not jornadas")
        if not self.references:
            raise InvalidValue("a configuration needs at least one reference")

    @property
    def key(self) -> tuple[str, str, int, str]:
        """(solution label, unit, reference count, metric token) join key.

        Two reference subsets of one size share the key.
        """
        return (self.solution.label, self.unit.short, len(self.references), self.metric.token)

    @property
    def family_label(self) -> str:
        return f"{self.solution.label} {self.unit.short} {len(self.references)}-ref"

    @property
    def label(self) -> str:
        return f"{self.family_label} {self.metric.label}"


# ranking: a tuple of RankingEntry; errors: the relative errors (%) aligned
# with it; gaps: the GapReport shared by the three metric configurations of a
# family; table: the family's DistanceTable, restricted to its references;
# target: the solution as a Profile in the table's unit and references
SweepResult = namedtuple("SweepResult", "ranking errors gaps table target")


def sweep(
    solutions: Sequence[SolutionProfile],
    units: Sequence[Unit],
    reference_subsets: Sequence[Sequence[str]],
    metrics: Sequence[MetricSpec],
    *,
    rates: ConversionRates = DEFAULT_RATES,
) -> dict[Configuration, SweepResult]:
    """Evaluate the full cross-product of configurations, deterministically.

    Results are keyed by Configuration in a fixed iteration order (solution,
    then reference subset, then unit, then metric).  The gap report attached
    to each result is the one of its (solution, subset, unit) family and is
    always computed over the standard L_inf/L_1/L_2 family.  Each result
    also carries the family's restricted built-in table and converted target.
    """
    solutions = _elements(solutions, SolutionProfile,
                          "solutions must be an iterable of SolutionProfile",
                          "a solution must be a SolutionProfile")
    units = _elements(units, Unit, "units must be an iterable of Unit", "a unit must be a Unit")
    reference_subsets = _coerce(tuple, reference_subsets,
                                "reference subsets must be an iterable of lists of names")
    metrics = _elements(metrics, MetricSpec, "metrics must be an iterable of MetricSpec",
                        "a metric must be a MetricSpec")
    _check_kind(rates, ConversionRates, "rates must be a ConversionRates")
    results: dict[Configuration, SweepResult] = {}
    for solution in solutions:
        for refs in reference_subsets:
            for unit in units:
                restricted = subset_references(builtin_table(unit), refs)
                target = target_profile(solution, unit, restricted.references, rates)
                rankings, scales, family_gaps = _rank_family(restricted, target, metrics)
                for metric in metrics:
                    ranking = rankings[metric]
                    errors = tuple(_percent(entry.distance, scales[metric]) for entry in ranking)
                    config = Configuration(solution, unit, restricted.references, metric)
                    results[config] = SweepResult(ranking, errors, family_gaps,
                                                  restricted, target)
    return results


GRID_REFERENCE_SUBSETS = (REFERENCES, REFERENCES[:3])  # with and without Munera

# sweep's (solutions, units, reference subsets, metrics) for the paper's grid
_GRID = ((CLASSIC_SOLUTION, REFINED_SOLUTION), (Unit.KILOMETERS, Unit.HOURS),
         GRID_REFERENCE_SUBSETS, STANDARD_METRICS)


def run_builtin_grid(rates: ConversionRates = DEFAULT_RATES) -> dict[Configuration, SweepResult]:
    """The standard grid: 2 solutions x 2 subsets x 2 units x 3 metrics."""
    return sweep(*_GRID, rates=rates)


# mean_top_error: the mean over the metrics of the winner's relative error
FamilyStats = namedtuple("FamilyStats",
                         "label solution unit references mean_gap mean_top_error")
FamilyStats.__doc__ = "Aggregates for one (solution, unit, references) family."

# top_candidates: (Configuration, winner) pairs; disagreeing_pairs:
# (solution, reference count, metric token) triples
GridSummary = namedtuple("GridSummary", (
    "top_candidates families lowest_error_family highest_mean_gap_family "
    "lowest_mean_gap_family unit_pairs_agree disagreeing_pairs"))
GridSummary.__doc__ = "Machine-checkable conclusions drawn from a full grid sweep."


def summarize_conclusions(results: Mapping[Configuration, SweepResult]) -> GridSummary:
    """Condense a full sweep into the headline facts.

    The unit-agreement check compares the top-5 candidate NAME SETS of the
    kilometers run and the hours run of each (solution, references, metric)
    combination; the two units may order near-ties differently.  Raises
    InvalidValue when ``results`` is empty.
    """
    _check_results(results)
    if not results:
        raise InvalidValue("there are no results to summarize")
    top = tuple((config, result.ranking[0].candidate) for config, result in results.items())
    stats = []
    for members in _families(results):
        config, result = members[0]
        mean_top_error = math.fsum(res.errors[0] for _, res in members) / len(members)
        stats.append(FamilyStats(config.family_label, config.solution.label, config.unit,
                                 config.references, result.gaps.mean_gap, mean_top_error))
    families = tuple(stats)

    by_units: dict[tuple, dict[Unit, frozenset[str]]] = {}
    for config, result in results.items():
        names = frozenset(e.candidate for e in result.ranking[:5])
        by_units.setdefault((config.solution, config.references, config.metric),
                            {})[config.unit] = names
    disagreeing = tuple(
        (solution.label, len(references), metric.token)
        for (solution, references, metric), per_unit in by_units.items()
        if len(per_unit) > 1 and len(set(per_unit.values())) > 1
    )

    return GridSummary(
        top_candidates=top,
        families=families,
        lowest_error_family=min(families, key=lambda f: f.mean_top_error),
        highest_mean_gap_family=max(families, key=lambda f: f.mean_gap),
        lowest_mean_gap_family=min(families, key=lambda f: f.mean_gap),
        unit_pairs_agree=not disagreeing,
        disagreeing_pairs=disagreeing,
    )


def _families(results: Mapping[Configuration, SweepResult]) -> list[list[tuple]]:
    """The (config, result) pairs of each (solution, unit, references) family,
    in the order the families first appear."""
    families: dict[tuple, list[tuple]] = {}
    for item in results.items():
        families.setdefault(item[0][:3], []).append(item)
    return list(families.values())


def _check_results(results: Mapping[Configuration, SweepResult]) -> None:
    """InvalidValue unless ``results`` maps Configurations to SweepResults."""
    _check_kind(results, Mapping, "results must be a mapping of Configuration to SweepResult")
    for config, result in results.items():
        _check_kind(config, Configuration, "a results key must be a Configuration")
        _check_kind(result, SweepResult, "a results value must be a SweepResult")


# entries: (locality, relative error %) pairs; gap and mean: None when the
# analysis gave none
ExternalResultRow = namedtuple("ExternalResultRow", "source entries gap mean",
                               defaults=(None, None))
ExternalResultRow.__doc__ = """A comparison row carried verbatim from earlier published analyses.

These values are compiled-in constants and are never recomputed.
"""


EXTERNAL_ERROR_ROWS = (
    ExternalResultRow(
        "[7]",
        (("Alcubillas", 8.30), ("Villanueva Inf.", 10.38)),
        gap=2.08,
    ),
    ExternalResultRow(
        "[3] con L_inf",
        (("Fuenllana", 12.00), ("Villanueva Inf.", 12.19), ("Carrizosa", 15.12)),
        gap=0.19,
    ),
    ExternalResultRow(
        "[3] con L_1",
        (("Carrizosa", 6.86), ("Fuenllana", 9.24), ("Villanueva Inf.", 9.27)),
        gap=2.37,
        mean=1.10,
    ),
    ExternalResultRow(
        "[3] con L_2",
        (("Carrizosa", 9.15), ("Villanueva Inf.", 9.90), ("Fuenllana", 9.98)),
        gap=0.75,
    ),
)


def build_error_table(results: Mapping[Configuration, SweepResult]) -> RenderedTable:
    """Three closest candidates with relative errors, one row per configuration.

    External rows (earlier published analyses) are listed first, verbatim.
    """
    _check_results(results)
    header = ("configuration",
              "locality 1", "error 1 (%)",
              "locality 2", "error 2 (%)",
              "locality 3", "error 3 (%)")
    sources = [(ext.source, ext.entries) for ext in EXTERNAL_ERROR_ROWS]
    sources += [(config.label, zip([entry.candidate for entry in result.ranking[:3]],
                                   result.errors))
                for config, result in results.items()]
    rows: list[tuple[str, ...]] = []
    for source, entries in sources:
        cells = [source]
        for name, pct in entries:
            cells += (name, format_2dp(pct))
        rows.append(tuple(cells) + ("",) * (len(header) - len(cells)))
    return RenderedTable(
        "Relative error (%) of the three closest candidates per configuration",
        header,
        tuple(rows),
    )


def build_gap_table(results: Mapping[Configuration, SweepResult]) -> RenderedTable:
    """Second-minus-first relative-error gap rows with per-family means."""
    _check_results(results)
    header = ("configuration", "second minus first (%)", "family mean (%)")
    rows: list[tuple[str, ...]] = []
    for ext in EXTERNAL_ERROR_ROWS:
        rows.append((
            ext.source,
            format_2dp(ext.gap),
            format_2dp(ext.mean) if ext.mean is not None else "",
        ))
    for members in _families(results):
        config, result = members[0]
        for record in result.gaps.records:
            rows.append((
                f"{config.family_label} {record.metric.label}",
                format_2dp(record.gap),
                format_2dp(result.gaps.mean_gap),
            ))
    return RenderedTable(
        "Gap between the second and the first candidate per configuration",
        header,
        tuple(rows),
    )


def build_summary_table(summary: GridSummary) -> RenderedTable:
    """Headline facts of a grid sweep as fact/value rows."""
    _check_kind(summary, GridSummary, "summary must be a GridSummary")
    rows: list[tuple[str, str]] = []
    for config, name in summary.top_candidates:
        rows.append((f"top candidate: {config.label}", name))
    for family in summary.families:
        rows.append((f"mean gap: {family.label}", format_2dp(family.mean_gap)))
        rows.append((f"mean top-1 relative error: {family.label}",
                     format_2dp(family.mean_top_error)))
    rows.append(("family with the smallest relative errors",
                 summary.lowest_error_family.label))
    rows.append(("family with the largest mean gap",
                 summary.highest_mean_gap_family.label))
    rows.append(("family with the smallest mean gap",
                 summary.lowest_mean_gap_family.label))
    rows.append(("km and hours runs agree on every top-5 name set",
                 "yes" if summary.unit_pairs_agree else "no"))
    for solution, nrefs, metric in summary.disagreeing_pairs:
        rows.append(("top-5 name sets differ between units",
                     f"{solution} {nrefs}-ref {metric}"))
    return RenderedTable("Analysis summary", ("fact", "value"), tuple(rows))


# Document numbers of the ranking tables in grid order; numbers 1 and 5 hold
# the km and hours datasets.
_RANKING_DOC_NUMBERS = tuple(n for n in range(2, 27) if n != 5)


def build_document_set(results: Mapping[Configuration, SweepResult]) -> dict[str, RenderedTable]:
    """The result documents of the full built-in grid, keyed by file stem.

    In table order: the 24 ranking documents at their conventional numbers
    (table_02..table_26, skipping the dataset number 5), the error
    comparison (table_27), the gap analysis (table_28) and the summary.
    Raises InvalidValue unless ``results`` holds the 24 configurations of
    the built-in grid, in grid order (``sweep``'s order), and nothing else.
    """
    _check_results(results)
    solutions, units, subsets, metrics = _GRID
    grid = [(solution, unit, references, metric) for solution in solutions
            for references in subsets for unit in units for metric in metrics]
    if list(results) != grid:
        raise InvalidValue(
            f"document numbering expects the {len(grid)} configurations of the builtin grid, "
            f"in grid order and nothing else; got {len(results)} that differ"
        )
    documents = {
        f"table_{number:02d}": build_ranking_table(
            result.table, result.target, result.ranking, config.metric, k=5,
            title=ranking_title(config.metric, config.solution, result.table),
        )
        for number, (config, result) in zip(_RANKING_DOC_NUMBERS, results.items())
    }
    documents["table_27"] = build_error_table(results)
    documents["table_28"] = build_gap_table(results)
    documents["summary"] = build_summary_table(summarize_conclusions(results))
    return documents


def write_document_set(
    outdir: str | os.PathLike[str],
    fmt: str = "md",
    rates: ConversionRates = DEFAULT_RATES,
) -> list[os.PathLike[str]]:
    """Write the complete built-in analysis to ``outdir``; byte-stable.

    Emits the two dataset documents (table_01, table_05) and the result
    documents of ``build_document_set``, each rendered in ``fmt``.  Every
    document is rendered before ``outdir`` is created, so an unknown format
    raises InvalidValue before anything is written.  ``outdir`` is read once,
    on entry: a path that is not text, is empty (which would name the current
    directory) or holds a NUL raises InvalidValue before the grid runs.
    Returns the written paths, as ``pathlib.Path`` objects, in name order.
    """
    from pathlib import Path

    path = _coerce(os.fspath, outdir, "outdir must be a str or os.PathLike path")
    _check_kind(path, str, "outdir must be a str or os.PathLike path")
    if not path or "\0" in path:
        raise InvalidValue(f"outdir must be a non-empty path without NUL, got {_shown(path)}")
    documents = build_document_set(run_builtin_grid(rates))
    for stem, unit in (("table_01", Unit.KILOMETERS), ("table_05", Unit.HOURS)):
        documents[stem] = build_dataset_table(builtin_table(unit),
                                              f"Candidate distances in {unit.value}")
    texts = [(stem, documents[stem].text(fmt)) for stem in sorted(documents)]
    outdir = Path(path)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for stem, text in texts:
        path = outdir / f"{stem}.{fmt}"
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        written.append(path)
    return written
