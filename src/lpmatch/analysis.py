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
tie-break, so it is computed for those rows only, through the same reducer,
and they are re-sorted by (distance, L2, name) in place.  That hides no
overflow: differences are >= 0, so a row's L2 is at most sqrt(R) times its
largest difference, which is at most any of its Lp distances.  While sqrt(R)
times the largest distance stays below half the largest double no L2 can
overflow; beyond that every row's L2 is computed as before.  So rankings,
tie order and errors are the ones a full L2 pass gives.  ``gap_report`` and
``sweep`` rank a family of metrics from one set of differences, with the L2
ranking's distances as the other metrics' tie-breaks.  A distance or
relative error that is not a finite double raises InvalidValue.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from itertools import compress, count, islice, repeat
from operator import eq, index, itemgetter
from typing import Mapping, NamedTuple, Sequence

from .core import (
    DEFAULT_RATES,
    ConversionRates,
    MetricSpec,
    Profile,
    Unit,
    _Checked,
    _coerce,
    _norm,
    _norms,
    _shown,
    convert,
    magnitude,
)
from .dataset import REFERENCES, DistanceTable, builtin_table, subset_references
from .errors import InvalidValue

__all__ = [
    "STANDARD_METRICS",
    "SolutionProfile",
    "CLASSIC_SOLUTION",
    "REFINED_SOLUTION",
    "BUILTIN_SOLUTIONS",
    "RankingEntry",
    "Configuration",
    "GapRecord",
    "GapReport",
    "SweepResult",
    "GridSummary",
    "FamilyStats",
    "target_profile",
    "rank_candidates",
    "top_k",
    "relative_error_percent",
    "gap_report",
    "sweep",
    "run_builtin_grid",
    "summarize_conclusions",
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
        if self.jornadas.unit is not Unit.JORNADAS:
            raise InvalidValue("a solution profile must be expressed in jornadas")


CLASSIC_SOLUTION = SolutionProfile(
    "classic", Profile(REFERENCES, (2.0, 2.37, 2.5, 2.0), Unit.JORNADAS)
)
REFINED_SOLUTION = SolutionProfile(
    "refined", Profile(REFERENCES, (2.0, 2.42, 2.8, 2.23), Unit.JORNADAS)
)
BUILTIN_SOLUTIONS = {s.label: s for s in (CLASSIC_SOLUTION, REFINED_SOLUTION)}


class RankingEntry(NamedTuple):
    """One candidate's place in a ranking; immutable, and also a plain tuple."""

    candidate: str
    distance: float
    rank: int


class Configuration(_Checked, namedtuple("Configuration", "solution unit references metric")):
    """One cell of the analysis grid."""

    __slots__ = ()

    def __new__(cls, solution: SolutionProfile, unit: Unit, references: Sequence[str],
                metric: MetricSpec) -> "Configuration":
        return super().__new__(cls, solution, unit, tuple(references), metric)

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


class GapRecord(NamedTuple):
    metric: MetricSpec
    first: str
    first_error: float
    second: str
    second_error: float
    gap: float


class GapReport(NamedTuple):
    """Top-two relative-error gaps per metric, with their arithmetic mean."""

    records: tuple[GapRecord, ...]
    mean_gap: float


class SweepResult(NamedTuple):
    ranking: tuple[RankingEntry, ...]
    errors: tuple[float, ...]  # relative error (%) aligned with ranking
    gaps: GapReport  # shared by the three metric configurations of a family
    table: DistanceTable  # the family's table, restricted to its references
    target: Profile  # the solution converted to the table's unit and references


def target_profile(
    solution: SolutionProfile,
    unit: Unit,
    references: Sequence[str] = REFERENCES,
    rates: ConversionRates = DEFAULT_RATES,
) -> Profile:
    """The solution restricted to ``references`` and converted to ``unit``."""
    return convert(solution.jornadas.select(tuple(references)), unit, rates)


def rank_candidates(
    table: DistanceTable, target: Profile, metric: MetricSpec
) -> list[RankingEntry]:
    """All candidates sorted by ascending metric distance to the target.

    Exact ties are broken by ascending L2 distance to the target, then by
    candidate name.
    """
    _check_kind(table, DistanceTable, "table")
    _check_kind(target, Profile, "target")
    _check_kind(metric, MetricSpec, "metric")
    return _rankings(table, target, (metric,))[metric]


def _check_kind(value, kind: type, field: str) -> None:
    if not isinstance(value, kind):
        raise InvalidValue(f"{field} must be a {kind.__name__}, got {_shown(value)}")


def _rankings(
    table: DistanceTable, target: Profile, metrics: Sequence[MetricSpec]
) -> dict[MetricSpec, list[RankingEntry]]:
    """The ranking of ``table`` under each of ``metrics``, in that order.

    The |column - goal| differences are built once and shared by every
    metric.  The L2 values that break distance ties are computed for every
    row only when some metric is L2 itself or when the overflow bound below
    does not hold; otherwise only for the rows whose distance is tied.  The
    InvalidValue of an overflow names the metric that ``rank_candidates``
    would name for the first of ``metrics`` to meet one.
    """
    if target.unit is not table.unit:
        raise InvalidValue(
            f"target is in {target.unit.value} but the table is in {table.unit.value}"
        )
    goal = table.aligned(target)
    # a comprehension, which CPython 3.11 specializes for floats, builds
    # these about twice as fast as map(abs, map(sub, column, repeat(g)))
    diffs = [[abs(v - g) for v in column] for column, g in zip(table.value_columns, goal)]
    l2 = _checked_norms(_L2, diffs, metrics[0]) if _L2 in metrics else None
    rankings = {}
    for metric in metrics:
        distances = l2 if metric == _L2 else _checked_norms(metric, diffs, metric)
        # every Lp distance of a row, L_inf included, is at least its largest
        # difference, and its L2 at most sqrt(R) times that
        if l2 is None and max(distances) * math.sqrt(len(diffs)) >= _L2_SAFE:
            l2 = _checked_norms(_L2, diffs, metric)
        rankings[metric] = _ranked(distances, l2, diffs, table.candidates)
    return rankings


def _checked_norms(
    spec: MetricSpec, diffs: list[list[float]], metric: MetricSpec
) -> list[float]:
    """``_norms(spec, diffs)`` for a ranking under ``metric``.

    When a norm overflows, the InvalidValue raised names the metric that a
    row-by-row walk meets first, checking each row's ``metric`` distance
    before its L2 tie-break, whichever pass found the overflow.
    """
    try:
        return _norms(spec, diffs)
    except InvalidValue:
        for row in zip(*diffs):
            _norm(metric, row)
            _norm(_L2, row)
        raise


def _ranked(
    distances: list[float], l2: list[float] | None, diffs: list[list[float]],
    names: tuple[str, ...],
) -> list[RankingEntry]:
    """Rows ordered by (distance, L2, name); ``l2`` is None when only tied
    rows may have their L2 computed."""
    order = sorted(range(len(distances)), key=distances.__getitem__)  # float keys, stable
    ordered = list(map(distances.__getitem__, order))
    tied = list(compress(count(), map(eq, ordered, islice(ordered, 1, None))))
    if tied:
        # the positions in ``order`` of every row whose distance equals a
        # neighbour's, ascending; re-sorting those rows by (distance, L2,
        # name) orders each run of equal distances within its own positions
        positions = sorted({*tied, *(position + 1 for position in tied)})
        rows = list(map(order.__getitem__, positions))
        if l2 is None:
            pick = itemgetter(*rows)  # at least two rows, so it returns a tuple
            ties = _norms(_L2, [pick(column) for column in diffs])
        else:
            ties = map(l2.__getitem__, rows)
        keyed = sorted(zip(map(ordered.__getitem__, positions), ties,
                           map(names.__getitem__, rows), rows))
        for position, (_, _, _, row) in zip(positions, keyed):
            order[position] = row
    # tuple.__new__ builds each entry as RankingEntry(name, distance, rank)
    # would, without a Python-level __new__ call per candidate
    fields = zip(map(names.__getitem__, order), ordered, count(1))
    return list(map(tuple.__new__, repeat(RankingEntry), fields))


def top_k(ranking: Sequence[RankingEntry], k: int = 5) -> list[RankingEntry]:
    """First min(k, N) entries of a ranking."""
    if _coerce(index, k, "k must be an integer") < 1:
        raise InvalidValue(f"k must be >= 1, got {_shown(k)}")
    return list(ranking[:k])


def relative_error_percent(distance: float, target: Profile, metric: MetricSpec) -> float:
    """Distance as a percentage of the target's own magnitude under ``metric``."""
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
    _check_kind(table, DistanceTable, "table")
    _check_kind(target, Profile, "target")
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


class FamilyStats(NamedTuple):
    """Aggregates for one (solution, unit, reference subset) family."""

    label: str
    solution: str
    unit: Unit
    references: tuple[str, ...]
    mean_gap: float
    mean_top_error: float  # mean over the metrics of the winner's relative error


class GridSummary(NamedTuple):
    """Machine-checkable conclusions drawn from a full grid sweep."""

    top_candidates: tuple[tuple[Configuration, str], ...]
    families: tuple[FamilyStats, ...]
    lowest_error_family: FamilyStats
    highest_mean_gap_family: FamilyStats
    lowest_mean_gap_family: FamilyStats
    unit_pairs_agree: bool
    disagreeing_pairs: tuple[tuple[str, int, str], ...]  # (solution, refs, metric)


def summarize_conclusions(results: Mapping[Configuration, SweepResult]) -> GridSummary:
    """Condense a full sweep into the headline facts.

    The unit-agreement check compares the top-5 candidate NAME SETS of the
    kilometers run and the hours run of each (solution, subset, metric)
    combination; the two units may order near-ties differently.
    """
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
