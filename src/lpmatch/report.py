"""Document rendering: ranking tables, error listings and gap listings.

Every document is a RenderedTable of already-formatted cells, and its
``text`` method is the one place an output format is chosen: markdown,
delimiter-separated text or a stream of JSON records.  Numeric cells are
formatted at two decimals with dot decimal separators, rounding ties away
from zero; all underlying computation stays at full precision.  A figure
cell knows it is one: ``format_2dp`` returns it as a ``_Figure``, the one
kind of cell that a JSON record writes as a number.  The paper grid's
documents are built from these in ``paper``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from itertools import chain

from .analysis import GapReport, RankingEntry, SolutionProfile, relative_error_percent, top_k
from .core import MetricSpec, Profile, _Checked, _check_kind, _coerce, _real, _shown
from .dataset import DistanceTable
from .errors import InvalidValue

__all__ = [
    "FORMATS",
    "TARGET_LABEL",
    "RenderedTable",
    "format_2dp",
    "ranking_title",
    "build_dataset_table",
    "build_ranking_table",
    "build_error_listing",
    "build_gap_listing",
]

FORMATS = ("md", "csv", "jsonl")

# Conventional label of the sought place, used as the target row of rankings.
TARGET_LABEL = "LUGAR DE LA MANCHA"


class _Figure(str):
    """A cell that holds a figure; jsonl writes it as a JSON number."""

    __slots__ = ()


def format_2dp(x: float) -> str:
    """Two-decimal display form, ties rounded away from zero.

    The text is ``repr(value)``, the shortest text that reads back as the
    value, rounded to cents in integer arithmetic: ``-0.0`` gives ``-0.00``
    and ``1e+23`` gives the repr's digits, ``100000000000000000000000.00``.
    Raises InvalidValue unless ``x`` is a finite real number (or its text).
    The text is a figure cell: a jsonl record writes it as a JSON number.
    """
    value = _coerce(_real, x, "a value to format must be a real number")
    if not math.isfinite(value):
        raise InvalidValue(f"a value to format must be finite, got {_shown(x)}")
    text = repr(value)
    sign = "-" if text[0] == "-" else ""
    mantissa, _, exponent = text.lstrip("-").partition("e")
    whole, _, fraction = mantissa.partition(".")
    dropped_digits = len(fraction) - 2 - int(exponent or 0)  # beyond the cents
    cents = int(whole + fraction)
    if dropped_digits > 0:
        scale = 10**dropped_digits
        cents, dropped = divmod(cents, scale)
        cents += 2 * dropped >= scale
    else:
        cents *= 10**-dropped_digits
    units, cents = divmod(cents, 100)
    return _Figure(f"{sign}{units}.{cents:02d}")


def _check_sequence(value, requirement: str) -> None:
    """InvalidValue "<requirement>, got <value>" unless ``value`` is a
    sequence other than a str, which would read as its characters."""
    if isinstance(value, str):
        raise InvalidValue(f"{requirement}, got {_shown(value)}")
    _check_kind(value, Sequence, requirement)


class RenderedTable(_Checked, namedtuple("RenderedTable", "title header rows")):
    """A titled table of already-formatted cells."""

    __slots__ = ()

    def __post_init__(self) -> None:
        _check_kind(self.title, str, "a document title must be a string")
        _check_sequence(self.header, "a document header must be a sequence of cells")
        _check_sequence(self.rows, "document rows must be a sequence of rows")
        for row in self.rows:
            _check_sequence(row, "a document row must be a sequence of cells")
            if len(row) != len(self.header):
                raise InvalidValue("every row must match the header arity")
        for cell in chain(self.header, *self.rows):
            _check_kind(cell, str, "a document cell must be a string")

    def text(self, fmt: str = "md") -> str:
        """The table in ``fmt``, one of FORMATS; raises InvalidValue otherwise."""
        if fmt == "md":
            return self._markdown()
        if fmt == "csv":
            return self._delimited()
        if fmt == "jsonl":
            return self._records()
        raise InvalidValue(f"unknown format {_shown(fmt)}")

    def _markdown(self) -> str:
        def line(cells) -> str:
            # a bare '|' in a cell would split it in two
            return "| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |"

        lines = [f"# {self.title}", "", line(self.header), line(("---",) * len(self.header))]
        lines += map(line, self.rows)
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

        lines = [json.dumps({"title": self.title, "columns": list(self.header)},
                            ensure_ascii=False)]
        for row in self.rows:
            record = {col: float(cell) if isinstance(cell, _Figure) else cell
                      for col, cell in zip(self.header, row)}
            lines.append(json.dumps(record, ensure_ascii=False))
        return "\n".join(lines) + "\n"


def build_dataset_table(table: DistanceTable, title: str) -> RenderedTable:
    _check_kind(table, DistanceTable, "table must be a DistanceTable")
    header = ("locality",) + tuple(f"{r} ({table.unit.short})" for r in table.references)
    rows = tuple(
        (name,) + tuple(format_2dp(v) for v in values)
        for name, values in zip(table.candidates, table.value_rows)
    )
    return RenderedTable(title, header, rows)


def ranking_title(metric: MetricSpec, solution: SolutionProfile, table: DistanceTable) -> str:
    """Title of a ranking of ``table``'s candidates against ``solution``."""
    _check_kind(metric, MetricSpec, "metric must be a MetricSpec")
    _check_kind(solution, SolutionProfile, "solution must be a SolutionProfile")
    _check_kind(table, DistanceTable, "table must be a DistanceTable")
    return (f"{metric.label} distances to the {solution.label} target "
            f"({table.unit.short}, {len(table.references)} references)")


def build_ranking_table(
    table: DistanceTable,
    target: Profile,
    ranking: Sequence[RankingEntry],
    metric: MetricSpec,
    k: int = 5,
    *,
    title: str,
) -> RenderedTable:
    """The target row (distance 0.00) followed by the k closest candidates."""
    _check_kind(table, DistanceTable, "table must be a DistanceTable")
    _check_kind(target, Profile, "target must be a Profile")
    _check_kind(metric, MetricSpec, "metric must be a MetricSpec")
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
    return RenderedTable(title, header, tuple(rows))


def build_error_listing(
    target: Profile,
    ranking: Sequence[RankingEntry],
    metric: MetricSpec,
    k: int = 3,
    *,
    title: str,
) -> RenderedTable:
    """Top-k candidates with distances and relative errors for one metric."""
    _check_kind(target, Profile, "target must be a Profile")
    _check_kind(metric, MetricSpec, "metric must be a MetricSpec")
    header = ("rank", "locality", metric.column, "relative error (%)")
    rows = tuple(
        (
            _Figure(entry.rank),
            entry.candidate,
            format_2dp(entry.distance),
            format_2dp(relative_error_percent(entry.distance, target, metric)),
        )
        for entry in top_k(ranking, k)
    )
    return RenderedTable(title, header, rows)


def build_gap_listing(gaps: GapReport, *, title: str) -> RenderedTable:
    """One family's per-metric top-two gap rows plus the mean row."""
    _check_kind(gaps, GapReport, "gaps must be a GapReport")
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
    return RenderedTable(title, header, tuple(rows))
