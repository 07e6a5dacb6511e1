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

from .analysis import (
    CLASSIC_SOLUTION,
    REFINED_SOLUTION,
    STANDARD_METRICS,
    SolutionProfile,
    _percent,
    _rank_family,
    target_profile,
)
from .core import DEFAULT_RATES, ConversionRates, MetricSpec, Unit, _Checked, _names
from .dataset import REFERENCES, builtin_table, subset_references
from .errors import InvalidValue
from .report import (
    RenderedTable,
    build_dataset_table,
    build_ranking_table,
    format_2dp,
    ranking_title,
)

__all__ = [
    "Configuration",
    "SweepResult",
    "FamilyStats",
    "GridSummary",
    "GRID_REFERENCE_SUBSETS",
    "sweep",
    "run_builtin_grid",
    "summarize_conclusions",
    "ExternalResultRow",
    "EXTERNAL_ERROR_ROWS",
    "build_error_table",
    "build_gap_table",
    "build_summary_table",
    "build_document_set",
    "write_document_set",
]


class Configuration(_Checked, namedtuple("Configuration", "solution unit references metric")):
    """One cell of the analysis grid."""

    __slots__ = ()

    def __new__(cls, solution: SolutionProfile, unit: Unit, references: Sequence[str],
                metric: MetricSpec) -> "Configuration":
        references = _names(references, "configuration references must be an iterable of names")
        return super().__new__(cls, solution, unit, references, metric)

    def __post_init__(self) -> None:
        if self.unit is Unit.JORNADAS:
            raise InvalidValue("data tables exist in kilometers and hours, not jornadas")
        if not self.references:
            raise InvalidValue("a configuration needs at least one reference")

    @property
    def key(self) -> tuple[str, str, int, str]:
        """(solution label, unit, reference count, metric token) join key."""
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


def run_builtin_grid(rates: ConversionRates = DEFAULT_RATES) -> dict[Configuration, SweepResult]:
    """The standard grid: 2 solutions x 2 subsets x 2 units x 3 metrics."""
    return sweep(
        (CLASSIC_SOLUTION, REFINED_SOLUTION),
        (Unit.KILOMETERS, Unit.HOURS),
        GRID_REFERENCE_SUBSETS,
        STANDARD_METRICS,
        rates=rates,
    )


# mean_top_error: the mean over the metrics of the winner's relative error
FamilyStats = namedtuple("FamilyStats",
                         "label solution unit references mean_gap mean_top_error")
FamilyStats.__doc__ = "Aggregates for one (solution, unit, reference subset) family."

# top_candidates: (Configuration, winner) pairs; disagreeing_pairs:
# (solution, reference count, metric token) triples
GridSummary = namedtuple("GridSummary", (
    "top_candidates families lowest_error_family highest_mean_gap_family "
    "lowest_mean_gap_family unit_pairs_agree disagreeing_pairs"))
GridSummary.__doc__ = "Machine-checkable conclusions drawn from a full grid sweep."


def summarize_conclusions(results: Mapping[Configuration, SweepResult]) -> GridSummary:
    """Condense a full sweep into the headline facts.

    The unit-agreement check compares the top-5 candidate NAME SETS of the
    kilometers run and the hours run of each (solution, subset, metric)
    combination; the two units may order near-ties differently.  Raises
    InvalidValue when ``results`` is empty.
    """
    if not results:
        raise InvalidValue("there are no results to summarize")
    top = tuple((config, result.ranking[0].candidate) for config, result in results.items())

    family_rows: dict[tuple[str, str, int], list[tuple[Configuration, SweepResult]]] = {}
    for config, result in results.items():
        family_rows.setdefault(config.key[:3], []).append((config, result))
    families = []
    for members in family_rows.values():
        config = members[0][0]
        mean_top_error = math.fsum(res.errors[0] for _, res in members) / len(members)
        families.append(
            FamilyStats(
                label=config.family_label,
                solution=config.solution.label,
                unit=config.unit,
                references=config.references,
                mean_gap=members[0][1].gaps.mean_gap,
                mean_top_error=mean_top_error,
            )
        )
    families_t = tuple(families)

    by_units: dict[tuple[str, int, str], dict[str, frozenset[str]]] = {}
    for config, result in results.items():
        label, unit, nrefs, metric = config.key
        names = frozenset(e.candidate for e in result.ranking[:5])
        by_units.setdefault((label, nrefs, metric), {})[unit] = names
    disagreeing = tuple(
        key for key, per_unit in by_units.items()
        if len(per_unit) > 1 and len(set(per_unit.values())) > 1
    )

    return GridSummary(
        top_candidates=top,
        families=families_t,
        lowest_error_family=min(families_t, key=lambda f: f.mean_top_error),
        highest_mean_gap_family=max(families_t, key=lambda f: f.mean_gap),
        lowest_mean_gap_family=min(families_t, key=lambda f: f.mean_gap),
        unit_pairs_agree=not disagreeing,
        disagreeing_pairs=disagreeing,
    )


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
    header = ("configuration",
              "locality 1", "error 1 (%)",
              "locality 2", "error 2 (%)",
              "locality 3", "error 3 (%)")
    rows: list[tuple[str, ...]] = []
    for ext in EXTERNAL_ERROR_ROWS:
        cells: list[str] = [ext.source]
        for name, pct in ext.entries:
            cells.extend((name, format_2dp(pct)))
        while len(cells) < len(header):
            cells.append("")
        rows.append(tuple(cells))
    for config, result in results.items():
        cells = [config.label]
        for entry, error in zip(result.ranking[:3], result.errors[:3]):
            cells.extend((entry.candidate, format_2dp(error)))
        while len(cells) < len(header):
            cells.append("")
        rows.append(tuple(cells))
    return RenderedTable(
        "Relative error (%) of the three closest candidates per configuration",
        header,
        tuple(rows),
    )


def build_gap_table(results: Mapping[Configuration, SweepResult]) -> RenderedTable:
    """Second-minus-first relative-error gap rows with per-family means."""
    header = ("configuration", "second minus first (%)", "family mean (%)")
    rows: list[tuple[str, ...]] = []
    for ext in EXTERNAL_ERROR_ROWS:
        if ext.gap is None:
            continue
        rows.append((
            ext.source,
            format_2dp(ext.gap),
            format_2dp(ext.mean) if ext.mean is not None else "",
        ))
    seen: set[tuple[str, str, int]] = set()
    for config, result in results.items():
        family = config.key[:3]
        if family in seen:
            continue
        seen.add(family)
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
    Raises InvalidValue unless ``results`` holds all 24 configurations.
    """
    if len(results) != 24:
        raise InvalidValue(
            "document numbering expects the full builtin grid of 24 configurations, "
            f"got {len(results)}"
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
    raises InvalidValue before anything is written.  Returns the written
    paths, as ``pathlib.Path`` objects, in name order.
    """
    from pathlib import Path

    documents = build_document_set(run_builtin_grid(rates))
    documents["table_01"] = build_dataset_table(
        builtin_table(Unit.KILOMETERS), "Candidate distances in kilometers"
    )
    documents["table_05"] = build_dataset_table(
        builtin_table(Unit.HOURS), "Candidate distances in hours"
    )
    texts = [(stem, documents[stem].text(fmt)) for stem in sorted(documents)]
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for stem, text in texts:
        path = outdir / f"{stem}.{fmt}"
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        written.append(path)
    return written
