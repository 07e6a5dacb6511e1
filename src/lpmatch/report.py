"""Document rendering: ranking tables, error comparisons and gap analyses.

Every document is a RenderedTable that can be emitted as markdown, as
delimiter-separated text or as a stream of JSON records.  Numeric cells are
formatted at two decimals with dot decimal separators, rounding ties away
from zero; all underlying computation stays at full precision.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import ROUND_HALF_UP, Context, Decimal
from itertools import chain
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .analysis import (
    Configuration,
    GapReport,
    GridSummary,
    RankingEntry,
    SolutionProfile,
    SweepResult,
    relative_error_percent,
    run_builtin_grid,
    summarize_conclusions,
    top_k,
)
from .core import DEFAULT_RATES, ConversionRates, MetricSpec, Profile, Unit, _Checked
from .dataset import DistanceTable, builtin_table
from .errors import InvalidValue

__all__ = [
    "FORMATS",
    "TARGET_LABEL",
    "ExternalResultRow",
    "EXTERNAL_ERROR_ROWS",
    "RenderedTable",
    "format_2dp",
    "ranking_title",
    "build_dataset_table",
    "build_ranking_table",
    "build_error_listing",
    "build_gap_listing",
    "build_error_table",
    "build_gap_table",
    "build_summary_table",
    "build_document_set",
    "write_document_set",
]

FORMATS = ("md", "csv", "jsonl")

# Conventional label of the sought place, used as the target row of rankings.
TARGET_LABEL = "LUGAR DE LA MANCHA"


# Two decimals of the largest finite double take 311 significant digits.  The
# rounding uses this context alone, so the caller's decimal context (its
# traps, precision and exponent limits) never changes or breaks the text.
_CONTEXT = Context(prec=320, rounding=ROUND_HALF_UP)
_CENT = Decimal("0.01")


def format_2dp(x: float) -> str:
    """Two-decimal display form, ties rounded away from zero."""
    return str(Decimal(repr(float(x))).quantize(_CENT, context=_CONTEXT))


class ExternalResultRow(NamedTuple):
    """A comparison row carried verbatim from earlier published analyses.

    These values are compiled-in constants and are never recomputed.
    """

    source: str
    entries: tuple[tuple[str, float], ...]  # (locality, relative error %)
    gap: float | None = None
    mean: float | None = None


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


class RenderedTable(_Checked, namedtuple("RenderedTable", "title header rows fmt",
                                         defaults=("md",))):
    """A titled table of already-formatted cells plus its output format."""

    __slots__ = ()

    def __post_init__(self) -> None:
        if self.fmt not in FORMATS:
            raise InvalidValue(f"unknown format {self.fmt!r}")
        for row in self.rows:
            if len(row) != len(self.header):
                raise InvalidValue("every row must match the header arity")

    def text(self) -> str:
        if self.fmt == "md":
            return self._markdown()
        if self.fmt == "csv":
            return self._delimited()
        return self._records()

    def _markdown(self) -> str:
        lines = [f"# {self.title}", ""]
        lines.append("| " + " | ".join(self.header) + " |")
        lines.append("| " + " | ".join("---" for _ in self.header) + " |")
        for row in self.rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"

    def _delimited(self) -> str:
        import csv
        import io

        out = io.StringIO()
        writer = csv.writer(out, delimiter=",", lineterminator="\n")
        writer.writerow(self.header)
        writer.writerows(self.rows)
        return out.getvalue()

    def _records(self) -> str:
        import json
        import re

        # only a plain decimal literal becomes a number, so a name such as
        # 'nan', 'Infinity', '1e5' or '1_0' stays a string and every line is
        # strict JSON
        plain_decimal = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")

        def cell_value(cell: str):
            return float(cell) if plain_decimal.fullmatch(cell) else cell

        lines = [json.dumps({"title": self.title, "columns": list(self.header)},
                            ensure_ascii=False)]
        for row in self.rows:
            record = {col: cell_value(cell) for col, cell in zip(self.header, row)}
            lines.append(json.dumps(record, ensure_ascii=False))
        return "\n".join(lines) + "\n"


def build_dataset_table(table: DistanceTable, title: str, fmt: str = "md") -> RenderedTable:
    header = ("locality",) + tuple(f"{r} ({table.unit.short})" for r in table.references)
    rows = tuple(
        (name,) + tuple(format_2dp(v) for v in values)
        for name, values in zip(table.candidates, table.value_rows)
    )
    return RenderedTable(title, header, rows, fmt)


def ranking_title(metric: MetricSpec, solution: SolutionProfile, table: DistanceTable) -> str:
    """Title of a ranking of ``table``'s candidates against ``solution``."""
    return (f"{metric.label} distances to the {solution.label} target "
            f"({table.unit.short}, {len(table.references)} references)")


def build_ranking_table(
    table: DistanceTable,
    target: Profile,
    ranking: Sequence[RankingEntry],
    metric: MetricSpec,
    k: int = 5,
    fmt: str = "md",
    *,
    title: str,
) -> RenderedTable:
    """The target row (distance 0.00) followed by the k closest candidates."""
    header = (
        ("locality",)
        + tuple(f"{r} ({table.unit.short})" for r in table.references)
        + (metric.column,)
    )
    target_values = table.aligned(target)  # the alignment the ranking used
    rows = [(TARGET_LABEL,) + tuple(format_2dp(v) for v in target_values) + (format_2dp(0.0),)]
    for entry in top_k(ranking, k):
        values = table.row_values(entry.candidate)
        rows.append(
            (entry.candidate,)
            + tuple(format_2dp(v) for v in values)
            + (format_2dp(entry.distance),)
        )
    return RenderedTable(title, header, tuple(rows), fmt)


def build_error_listing(
    target: Profile,
    ranking: Sequence[RankingEntry],
    metric: MetricSpec,
    k: int = 3,
    fmt: str = "md",
    *,
    title: str,
) -> RenderedTable:
    """Top-k candidates with distances and relative errors for one metric."""
    header = ("rank", "locality", metric.column, "relative error (%)")
    rows = tuple(
        (
            str(entry.rank),
            entry.candidate,
            format_2dp(entry.distance),
            format_2dp(relative_error_percent(entry.distance, target, metric)),
        )
        for entry in top_k(ranking, k)
    )
    return RenderedTable(title, header, rows, fmt)


def build_gap_listing(gaps: GapReport, fmt: str = "md", *, title: str) -> RenderedTable:
    """One family's per-metric top-two gap rows plus the mean row."""
    header = ("metric", "first", "error 1 (%)", "second", "error 2 (%)", "gap (%)")
    rows = [
        (
            record.metric.label,
            record.first,
            format_2dp(record.first_error),
            record.second,
            format_2dp(record.second_error),
            format_2dp(record.gap),
        )
        for record in gaps.records
    ]
    rows.append(("mean", "", "", "", "", format_2dp(gaps.mean_gap)))
    return RenderedTable(title, header, tuple(rows), fmt)


def build_error_table(
    results: Mapping[Configuration, SweepResult],
    fmt: str = "md",
) -> RenderedTable:
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
        fmt,
    )


def build_gap_table(
    results: Mapping[Configuration, SweepResult],
    fmt: str = "md",
) -> RenderedTable:
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
        fmt,
    )


def build_summary_table(summary: GridSummary, fmt: str = "md") -> RenderedTable:
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
    return RenderedTable("Analysis summary", ("fact", "value"), tuple(rows), fmt)


# Document numbers of the ranking tables, one triple (L_inf, L_1, L_2) per
# family in grid order; numbers 1 and 5 hold the km and hours datasets.
_FAMILY_DOC_NUMBERS = (
    (2, 3, 4), (6, 7, 8), (9, 10, 11), (12, 13, 14),
    (15, 16, 17), (18, 19, 20), (21, 22, 23), (24, 25, 26),
)


def build_document_set(
    results: Mapping[Configuration, SweepResult], fmt: str = "md"
) -> dict[str, RenderedTable]:
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
            result.table, result.target, result.ranking, config.metric, k=5, fmt=fmt,
            title=ranking_title(config.metric, config.solution, result.table),
        )
        for number, (config, result) in zip(chain.from_iterable(_FAMILY_DOC_NUMBERS),
                                            results.items())
    }
    documents["table_27"] = build_error_table(results, fmt)
    documents["table_28"] = build_gap_table(results, fmt)
    documents["summary"] = build_summary_table(summarize_conclusions(results), fmt)
    return documents


def write_document_set(
    outdir: str | Path,
    fmt: str = "md",
    rates: ConversionRates = DEFAULT_RATES,
) -> list[Path]:
    """Write the complete built-in analysis to ``outdir``; byte-stable.

    Emits the two dataset documents (table_01, table_05) and the result
    documents of ``build_document_set``.  Returns the written paths in name
    order.
    """
    documents = build_document_set(run_builtin_grid(rates), fmt)
    documents["table_01"] = build_dataset_table(
        builtin_table(Unit.KILOMETERS), "Candidate distances in kilometers", fmt
    )
    documents["table_05"] = build_dataset_table(
        builtin_table(Unit.HOURS), "Candidate distances in hours", fmt
    )
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for stem in sorted(documents):
        path = outdir / f"{stem}.{fmt}"
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(documents[stem].text())
        written.append(path)
    return written
