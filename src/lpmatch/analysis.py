"""Ranking candidates against a target profile, plus error and gap statistics.

A configuration fixes a target (a named solution expressed in jornadas), a
unit, a reference subset and a metric.  Rankings sort every candidate of a
table by its metric distance to the target; exact distance ties are broken by
ascending L2 distance to the target, then by candidate name, which keeps the
result deterministic.

A ranking matches the target's references to the table's columns by folded
name once, then works a whole column at a time: one list of |column - goal|
differences per reference gives every candidate's distance through the batch
reducer of ``core``, and one sort on the distances alone orders the
candidates.  Only rows whose distance equals another row's need the L2
tie-break, and they are re-sorted by (distance, L2, name) in place.  Each
ranking decides once which rows get an L2, through the same reducer:
differences are >= 0, so a row's L2 is at most sqrt(R) times its largest
difference, which is at most any of its Lp distances.  While sqrt(R) times
the largest distance stays below half the largest double no L2 can overflow,
and only the tied rows get one; beyond that every row does, and that one
pass is both the tie-break and the overflow check.  An L2 ranking's tied
rows have their distance as their L2, so it makes no second pass.  So
rankings, tie order and errors are the ones a full L2 pass gives.  The sort
orders the table's own row ordinals (``DistanceTable`` builds 0..n once, and
its subsets share them), and the entries take their ranks from the same
tuple, so a ranking makes no int per row.
``gap_report`` and the paper grid's ``sweep`` (see ``paper``) rank a family
of metrics from one set of differences, each metric breaking its own ties in
the same way.  A distance or relative error that is not a finite double
raises InvalidValue.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Sequence
from itertools import compress, islice, repeat
from operator import eq, index

from .core import (
    DEFAULT_RATES,
    ConversionRates,
    MetricSpec,
    Profile,
    Unit,
    _Checked,
    _check_kind,
    _coerce,
    _norm,
    _norms,
    _shown,
    convert,
    magnitude,
)
from .dataset import REFERENCES, DistanceTable
from .errors import InvalidValue

__all__ = [
    "STANDARD_METRICS",
    "SolutionProfile",
    "CLASSIC_SOLUTION",
    "REFINED_SOLUTION",
    "BUILTIN_SOLUTIONS",
    "RankingEntry",
    "GapRecord",
    "GapReport",
    "target_profile",
    "rank_candidates",
    "top_k",
    "relative_error_percent",
    "gap_report",
]

# The metric family every gap report is computed over.
STANDARD_METRICS = (MetricSpec.infinity(), MetricSpec.ln(1), MetricSpec.ln(2))
_L2 = MetricSpec.ln(2)  # breaks exact distance ties
# While sqrt(R) times the largest distance of a ranking stays below this,
# no row's L2 overflows, with a factor of 2 to spare for the rounding of the
# bound and of hypot.
_L2_SAFE = sys.float_info.max / 2


class SolutionProfile(_Checked, namedtuple("SolutionProfile", "label jornadas")):
    """A named target profile, always expressed in jornadas."""

    __slots__ = ()

    def __post_init__(self) -> None:
        _check_kind(self.jornadas, Profile, "solution jornadas must be a Profile")
        if self.jornadas.unit is not Unit.JORNADAS:
            raise InvalidValue("a solution profile must be expressed in jornadas")


CLASSIC_SOLUTION = SolutionProfile(
    "classic", Profile(REFERENCES, (2.0, 2.37, 2.5, 2.0), Unit.JORNADAS)
)
REFINED_SOLUTION = SolutionProfile(
    "refined", Profile(REFERENCES, (2.0, 2.42, 2.8, 2.23), Unit.JORNADAS)
)
BUILTIN_SOLUTIONS = {s.label: s for s in (CLASSIC_SOLUTION, REFINED_SOLUTION)}


RankingEntry = namedtuple("RankingEntry", "candidate distance rank")
RankingEntry.__doc__ = "One candidate's place in a ranking; immutable, and also a plain tuple."

# the two closest candidates under one metric, their relative errors and gap
GapRecord = namedtuple("GapRecord", "metric first first_error second second_error gap")

GapReport = namedtuple("GapReport", "records mean_gap")
GapReport.__doc__ = "Top-two relative-error gaps per metric, with their arithmetic mean."


def target_profile(
    solution: SolutionProfile,
    unit: Unit,
    references: Sequence[str] = REFERENCES,
    rates: ConversionRates = DEFAULT_RATES,
) -> Profile:
    """The solution restricted to ``references`` and converted to ``unit``."""
    _check_kind(solution, SolutionProfile, "solution must be a SolutionProfile")
    _check_kind(unit, Unit, "unit must be a Unit")
    return convert(solution.jornadas.select(references), unit, rates)


def rank_candidates(
    table: DistanceTable, target: Profile, metric: MetricSpec
) -> list[RankingEntry]:
    """All candidates sorted by ascending metric distance to the target.

    Exact ties are broken by ascending L2 distance to the target, then by
    candidate name.
    """
    _check_kind(table, DistanceTable, "table must be a DistanceTable")
    _check_kind(target, Profile, "target must be a Profile")
    _check_kind(metric, MetricSpec, "metric must be a MetricSpec")
    return _rankings(table, target, (metric,))[metric]


def _rankings(
    table: DistanceTable, target: Profile, metrics: Sequence[MetricSpec]
) -> dict[MetricSpec, list[RankingEntry]]:
    """The ranking of ``table`` under each of ``metrics``, in that order.

    The |column - goal| differences are built once and shared by every
    metric.  Each ranking sorts the table's row ordinals on their distances,
    then re-sorts the rows whose distance is tied by (distance, L2, name),
    with the L2 of those rows only (an L2 ranking's own distances); beyond
    the overflow bound it re-sorts every row, and that L2 pass is also the
    overflow check.  The InvalidValue of an overflow names the metric that
    ``rank_candidates`` would name for the first of ``metrics`` to meet one.
    """
    goal = table.aligned(target)  # InvalidValue unless in its unit and references
    # a comprehension, which CPython 3.11 specializes for floats, builds
    # these about twice as fast as map(abs, map(sub, column, repeat(g)))
    diffs = [[abs(v - g) for v in column] for column, g in zip(table.value_columns, goal)]
    names = table.candidates
    ordinals = table._ordinals  # 0..n, shared with the table's subsets
    every_row = ordinals[:-1]
    rankings = {}
    for metric in metrics:
        try:
            distances = _norms(metric, diffs)
            order = sorted(every_row, key=distances.__getitem__)  # float keys, stable
            ordered = list(map(distances.__getitem__, order))
            # every Lp distance of a row, L_inf included, is at least its
            # largest difference, and its L2 at most sqrt(R) times that
            if ordered[-1] * math.sqrt(len(diffs)) < _L2_SAFE:
                # the positions in ``order`` of every row whose distance
                # equals a neighbour's, ascending
                tied = list(compress(ordinals, map(eq, ordered, islice(ordered, 1, None))))
                positions = sorted({*tied, *(position + 1 for position in tied)})
            else:
                positions = every_row  # every position, so no L2 overflow goes unseen
            if positions:
                # re-sorting these rows by (distance, L2, name) orders each
                # run of equal distances within its own positions
                rows = list(map(order.__getitem__, positions))
                position_distances = list(map(ordered.__getitem__, positions))
                # an L2 ranking's tie-break is its own distances, which its
                # distance pass has already checked for overflow
                l2 = position_distances if metric == _L2 else _norms(
                    _L2, [list(map(column.__getitem__, rows)) for column in diffs])
                keyed = sorted(zip(position_distances, l2, map(names.__getitem__, rows), rows))
                for position, (_, _, _, row) in zip(positions, keyed):
                    order[position] = row
        except InvalidValue:
            # name the metric that a row-by-row walk meets first, checking
            # each row's distance before its L2
            for row in zip(*diffs):
                _norm(metric, row)
                _norm(_L2, row)
            raise
        # tuple.__new__ builds each entry as RankingEntry(name, distance, rank)
        # would, without a Python-level __new__ call per candidate; the ranks
        # 1..n are the table's own ordinals, not new ints
        fields = zip(map(names.__getitem__, order), ordered, ordinals[1:])
        rankings[metric] = list(map(tuple.__new__, repeat(RankingEntry), fields))
    return rankings


def top_k(ranking: Sequence[RankingEntry], k: int = 5) -> list[RankingEntry]:
    """First min(k, N) entries of a ranking."""
    _check_kind(ranking, Sequence, "ranking must be a sequence of RankingEntry")
    if _coerce(index, k, "k must be an integer") < 1:
        raise InvalidValue(f"k must be >= 1, got {_shown(k)}")
    shown = list(ranking[:k])
    for entry in shown:
        _check_kind(entry, RankingEntry, "a ranking entry must be a RankingEntry")
    return shown


def relative_error_percent(distance: float, target: Profile, metric: MetricSpec) -> float:
    """Distance as a percentage of the target's own magnitude under ``metric``."""
    _check_kind(target, Profile, "target must be a Profile")
    _check_kind(metric, MetricSpec, "metric must be a MetricSpec")
    requirement = "distance must be finite and >= 0"
    if not _coerce(math.isfinite, distance, requirement) or distance < 0.0:
        raise InvalidValue(f"{requirement}, got {_shown(distance)}")
    return _percent(distance, _scale(target, metric))


def _scale(target: Profile, metric: MetricSpec) -> float:
    """The target's magnitude under ``metric``, the base of relative errors."""
    scale = magnitude(metric, target)
    if scale <= 0.0:
        raise InvalidValue("target profile has zero magnitude")
    return scale


def _percent(distance: float, scale: float) -> float:
    """``distance`` as a percentage of ``scale``; InvalidValue unless finite."""
    error = 100.0 * distance / scale
    if math.isinf(error):  # 100 * distance alone may exceed the largest double
        error = distance / scale * 100.0
    if not math.isfinite(error):
        raise InvalidValue(
            f"the relative error of distance {distance!r} exceeds the largest double"
        )
    return error


def gap_report(table: DistanceTable, target: Profile) -> GapReport:
    """Second-minus-first relative-error gap for each standard metric.

    Gaps are computed from full-precision relative errors; rounding is left
    to the rendering layer.
    """
    _check_kind(table, DistanceTable, "table must be a DistanceTable")
    _check_kind(target, Profile, "target must be a Profile")
    return _rank_family(table, target, STANDARD_METRICS)[2]


def _rank_family(
    table: DistanceTable, target: Profile, metrics: Sequence[MetricSpec]
) -> tuple[dict[MetricSpec, tuple[RankingEntry, ...]], dict[MetricSpec, float], GapReport]:
    """Rankings and relative-error scales of ``metrics`` and the standard
    metrics, each computed once, plus the gap report they give."""
    if len(table) < 2:
        raise InvalidValue("gap analysis needs at least two candidates")
    needed = tuple(dict.fromkeys((*metrics, *STANDARD_METRICS)))
    rankings = {metric: tuple(ranking)
                for metric, ranking in _rankings(table, target, needed).items()}
    scales = {metric: _scale(target, metric) for metric in needed}
    records = []
    for metric in STANDARD_METRICS:
        first, second = rankings[metric][:2]
        first_error = _percent(first.distance, scales[metric])
        second_error = _percent(second.distance, scales[metric])
        records.append(
            GapRecord(metric, first.candidate, first_error,
                      second.candidate, second_error, second_error - first_error)
        )
    mean = math.fsum(r.gap for r in records) / len(records)
    return rankings, scales, GapReport(tuple(records), mean)
