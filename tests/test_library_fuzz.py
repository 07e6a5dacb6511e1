"""Seeded fuzzing of the library's parameters: a result or a data error.

Every public constructor and function of ``core``, ``dataset``,
``analysis``, ``report`` and ``paper`` that takes numbers, names, tokens,
titles, cells or units gets mixed values in those places: strings, None,
bools, complex numbers, nan, +-inf, huge ints and nested tuples, beside
ordinary values; a document that ``report`` returns is also rendered.
Parameters that take one of the package's own objects (a table, a target
profile, a metric, a ranking) get a valid one, except in the structural
cases, which pass mixed values, lists and rows of the wrong shape where a
table, its rows, a target or a metric belongs.  A call must return or raise exactly ``InvalidValue`` or
``ParseError``, the package's two data errors; any other exception is a
traceback that a library caller would see.  Seeded (``derandomize``) and
bounded, so every run checks the same cases.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpmatch.analysis import (
    CLASSIC_SOLUTION,
    SolutionProfile,
    gap_report,
    rank_candidates,
    relative_error_percent,
    target_profile,
    top_k,
)
from lpmatch.core import (
    ConversionRates,
    MetricSpec,
    Profile,
    Unit,
    convert,
    fold_name,
    magnitude,
    metric_distance,
)
from lpmatch.dataset import (
    REFERENCES,
    DistanceTable,
    builtin_table,
    normalize_name,
    parse_table,
    subset_references,
)
from lpmatch.errors import InvalidValue, LpmatchError, ParseError
from lpmatch.paper import Configuration, sweep
from lpmatch.report import (
    RenderedTable,
    build_dataset_table,
    build_error_listing,
    build_gap_listing,
    build_ranking_table,
    format_2dp,
)

ODD = st.one_of(
    st.sampled_from([None, True, False, 1j, complex(2, 0), math.nan, math.inf, -math.inf,
                     10**400, -10**400, 2**64 + 1, 10**5000, (), (1,), ((1.0, "a"),),
                     ("a", ("b",)), "", " ", "x", "3", "1e400", "nan", "l2", "km"]),
    st.text(max_size=6),
    st.integers(min_value=-10**30, max_value=10**30),
    st.floats(),
)
USUAL = st.one_of(st.integers(1, 50), st.floats(0.01, 100.0), st.sampled_from(["a", "b", "c"]))
MIXED = st.one_of(ODD, USUAL)
FORMATS = st.sampled_from(["md", "csv", "jsonl"])

TABLE = DistanceTable(Unit.KILOMETERS, ("a", "b"), [("X", (1.0, 2.0)), ("Y", (3.0, 1.5))])
TARGET = Profile(("a", "b"), (2.0, 2.0), Unit.KILOMETERS)
RANKING = rank_candidates(TABLE, TARGET, MetricSpec(1))
GAPS = gap_report(TABLE, TARGET)


def returns_or_raises_a_data_error(call, draw):
    try:
        call(draw)
    except LpmatchError as exc:
        assert type(exc) in (InvalidValue, ParseError), repr(exc)


def names_and_values(draw, size):
    names = draw(st.lists(st.one_of(MIXED, st.sampled_from(["a", "b", "c"])),
                          min_size=size, max_size=size))
    values = draw(st.lists(MIXED, min_size=size, max_size=size))
    return names, values


CALLS = {
    "MetricSpec": lambda d: MetricSpec(d(MIXED)),
    "MetricSpec.parse": lambda d: MetricSpec.parse(d(MIXED)),
    "Unit.parse": lambda d: Unit.parse(d(MIXED)),
    "ConversionRates": lambda d: ConversionRates(d(MIXED), d(MIXED)),
    "Profile": lambda d: Profile(*names_and_values(d, d(st.integers(0, 3))),
                                 d(st.one_of(st.sampled_from(list(Unit)), MIXED))),
    "DistanceTable": lambda d: DistanceTable(
        d(st.one_of(st.just(Unit.HOURS), MIXED)),
        d(st.lists(MIXED, min_size=1, max_size=2)),
        [(d(MIXED), d(st.lists(MIXED, min_size=1, max_size=2)))
         for _ in range(d(st.integers(1, 3)))],
    ),
    "fold_name": lambda d: fold_name(d(MIXED)),
    "normalize_name": lambda d: normalize_name(d(MIXED)),
    "builtin_table": lambda d: builtin_table(d(MIXED)),
    "parse_table": lambda d: parse_table(d(MIXED), unit=d(st.one_of(st.just(Unit.HOURS), MIXED)),
                                         decimal=d(st.one_of(st.just("auto"), MIXED))),
    "subset_references": lambda d: subset_references(TABLE, d(st.lists(MIXED, max_size=2))),
    "convert": lambda d: convert(Profile(("a",), (1.0,), Unit.JORNADAS), d(MIXED),
                                 ConversionRates(d(MIXED), d(MIXED))),
    "magnitude": lambda d: magnitude(MetricSpec(d(MIXED)), TARGET),
    "metric_distance": lambda d: metric_distance(
        MetricSpec(1), TARGET, Profile(*names_and_values(d, 2), Unit.KILOMETERS)),
    "SolutionProfile": lambda d: SolutionProfile(d(MIXED), CLASSIC_SOLUTION.jornadas),
    "Configuration": lambda d: Configuration(CLASSIC_SOLUTION, d(MIXED),
                                             d(st.lists(MIXED, max_size=2)), MetricSpec(1)),
    "target_profile": lambda d: target_profile(CLASSIC_SOLUTION, Unit.HOURS,
                                               d(st.lists(MIXED, min_size=1, max_size=2))),
    "rank_candidates": lambda d: rank_candidates(
        TABLE, Profile(*names_and_values(d, 2), Unit.KILOMETERS), MetricSpec(d(MIXED))),
    "top_k": lambda d: top_k(RANKING, d(MIXED)),
    "relative_error_percent": lambda d: relative_error_percent(d(MIXED), TARGET, MetricSpec(2)),
    "format_2dp": lambda d: format_2dp(d(MIXED)),
    "RenderedTable": lambda d: RenderedTable(
        d(MIXED), ("a", d(MIXED)), (("x", d(MIXED)),)).text(d(st.one_of(FORMATS, MIXED))),
    "build_dataset_table": lambda d: build_dataset_table(
        TABLE, d(MIXED)).text(d(st.one_of(FORMATS, MIXED))),
    "build_ranking_table": lambda d: build_ranking_table(
        TABLE, TARGET, RANKING, MetricSpec(1), d(MIXED),
        title=d(MIXED)).text(d(st.one_of(FORMATS, MIXED))),
    "build_error_listing": lambda d: build_error_listing(
        TARGET, RANKING, MetricSpec(1), d(MIXED),
        title=d(MIXED)).text(d(st.one_of(FORMATS, MIXED))),
    "build_gap_listing": lambda d: build_gap_listing(
        GAPS, title=d(MIXED)).text(d(st.one_of(FORMATS, MIXED))),
}


@given(name=st.sampled_from(sorted(CALLS)), data=st.data())
@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
def test_value_parameters_give_a_result_or_an_lpmatch_error(name, data):
    returns_or_raises_a_data_error(CALLS[name], data.draw)


# values of the wrong shape where a sequence, a row or a package object belongs
SHAPES = st.one_of(MIXED, st.lists(MIXED, max_size=3), st.tuples(MIXED),
                   st.tuples(MIXED, MIXED, MIXED), st.dictionaries(st.text(max_size=2), MIXED))
ROWS = st.one_of(SHAPES, st.lists(st.one_of(
    SHAPES, st.tuples(st.sampled_from(["X", "Y"]), st.lists(USUAL, min_size=1, max_size=2)),
    st.tuples(MIXED, SHAPES)), max_size=3))

STRUCTURAL = {
    "DistanceTable": lambda d: DistanceTable(
        Unit.HOURS, d(st.one_of(SHAPES, st.just(("a", "b")))), d(ROWS)),
    "builtin_table": lambda d: builtin_table(d(st.one_of(SHAPES, st.just(["km"])))),
    "rank_candidates": lambda d: rank_candidates(
        d(st.one_of(SHAPES, st.just(TABLE))), d(st.one_of(SHAPES, st.just(TARGET))),
        d(st.one_of(SHAPES, st.just(MetricSpec(1))))),
    "gap_report": lambda d: gap_report(
        d(st.one_of(SHAPES, st.just(TABLE))), d(st.one_of(SHAPES, st.just(TARGET)))),
    "subset_references": lambda d: subset_references(TABLE, d(SHAPES)),
    "target_profile": lambda d: target_profile(CLASSIC_SOLUTION, Unit.HOURS, d(SHAPES)),
}


@given(name=st.sampled_from(sorted(STRUCTURAL)), data=st.data())
@settings(max_examples=800, deadline=None, derandomize=True, database=None)
def test_structural_arguments_give_a_result_or_an_lpmatch_error(name, data):
    returns_or_raises_a_data_error(STRUCTURAL[name], data.draw)


KM = Unit.KILOMETERS


@pytest.mark.parametrize("call, message", [
    (lambda: MetricSpec(math.nan), r"^metric order must be an integer >= 1, got nan$"),
    (lambda: MetricSpec("x"), r"^metric order must be an integer >= 1, got 'x'$"),
    (lambda: MetricSpec(math.inf), r"^metric order must be an integer >= 1, got inf$"),
    (lambda: MetricSpec(-10**5000),
     r"^metric order must be an integer >= 1, got <int too large to show>$"),
    (lambda: Profile(("a",), ("x",), KM),
     r"^profile distances must be real numbers, got \('x',\)$"),
    (lambda: Profile(("a",), (1j,), KM),
     r"^profile distances must be real numbers, got \(1j,\)$"),
    (lambda: ConversionRates("x", 1.0), r"^km_per_jornada must be finite and > 0, got 'x'$"),
    (lambda: top_k(RANKING, "3"), r"^k must be an integer, got '3'$"),
    (lambda: relative_error_percent("1", TARGET, MetricSpec(1)),
     r"^distance must be finite and >= 0, got '1'$"),
    (lambda: DistanceTable(KM, ("a",), [("c", ("x",))]),
     r"^table distances must be real numbers, got \('x',\)$"),
    (lambda: DistanceTable(KM, ("a",), [(None, (1.0,))]), r"^a name must be a string, got None$"),
    (lambda: Unit.parse(None), r"^a unit must be a string, got None$"),
    (lambda: MetricSpec.parse(2), r"^a metric must be a string, got 2$"),
    (lambda: parse_table(None, unit=KM), r"^table text must be a string, got None$"),
    (lambda: DistanceTable(Unit.HOURS, ("a",), [("c",)]),
     r"^a table row must be a \(name, values\) pair, got \('c',\)$"),
    (lambda: DistanceTable(Unit.HOURS, ("a",), [("b", (1.0,)), ("c", (2.0,), "d")]),
     r"^a table row must be a \(name, values\) pair, got \('c', \(2\.0,\), 'd'\)$"),
    (lambda: DistanceTable(Unit.HOURS, None, []),
     r"^table references must be an iterable of names, got None$"),
    (lambda: DistanceTable(Unit.HOURS, ("a",), None),
     r"^table rows must be an iterable of \(name, values\) pairs, got None$"),
    (lambda: builtin_table(["km"]), r"^table unit must be a Unit, got \['km'\]$"),
    (lambda: rank_candidates(TABLE, TARGET, None), r"^metric must be a MetricSpec, got None$"),
    (lambda: rank_candidates(TABLE, None, MetricSpec(1)), r"^target must be a Profile, got None$"),
    (lambda: gap_report("t", TARGET), r"^table must be a DistanceTable, got 't'$"),
    (lambda: subset_references(TABLE, 1.5),
     r"^references to keep must be an iterable of names, got 1\.5$"),
    (lambda: subset_references(TABLE, None), r"^must keep at least one reference$"),
    (lambda: subset_references(TABLE, iter(())), r"^must keep at least one reference$"),
    (lambda: target_profile(CLASSIC_SOLUTION, Unit.HOURS, 7),
     r"^selected references must be an iterable of names, got 7$"),
    # a bare string where a list of names belongs is not read as one-letter names
    (lambda: subset_references(builtin_table("km"), "Munera"),
     r"^references to keep must be an iterable of names, got 'Munera'$"),
    (lambda: target_profile(CLASSIC_SOLUTION, KM, "Munera"),
     r"^selected references must be an iterable of names, got 'Munera'$"),
    (lambda: CLASSIC_SOLUTION.jornadas.select("Munera"),
     r"^selected references must be an iterable of names, got 'Munera'$"),
    (lambda: sweep((CLASSIC_SOLUTION,), (KM,), REFERENCES, (MetricSpec(1),)),
     r"^references to keep must be an iterable of names, got 'Venta de Cárdenas'$"),
    (lambda: DistanceTable(KM, "ab", [("x", (1, 2))]),
     r"^table references must be an iterable of names, got 'ab'$"),
    (lambda: Configuration(CLASSIC_SOLUTION, KM, "Munera", MetricSpec(1)),
     r"^configuration references must be an iterable of names, got 'Munera'$"),
    (lambda: Configuration(CLASSIC_SOLUTION, KM, 5, MetricSpec(1)),
     r"^configuration references must be an iterable of names, got 5$"),
])
def test_wrong_types_raise_invalid_value_naming_the_field(call, message):
    with pytest.raises(InvalidValue, match=message):
        call()
