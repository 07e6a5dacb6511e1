"""Seeded fuzzing of the library's parameters: a result or a data error.

Every public constructor and function of ``core``, ``dataset``,
``analysis``, ``report`` and ``paper`` that takes numbers, names, tokens,
titles, cells, delimiters or units gets mixed values in those places:
strings, None, bools, complex numbers, nan, +-inf, huge ints and nested
tuples, beside ordinary values; a document that ``report`` returns is also
rendered.  Parameters that take one of the package's own objects (a table, a
target profile, a metric, a ranking) get a valid one, except in the
structural cases, which pass mixed values, lists and rows of the wrong shape
where a table, its rows, a target or a metric belongs.  Seeded
(``derandomize``) and bounded, so every run checks the same cases.

Beside the fuzzing, every public callable of the five modules' ``__all__``,
and the public methods, is called with a value of the wrong kind in each
operand position in turn (``KINDS``); a completeness gate keeps that table
in step with ``__all__``.  Every call must return or raise exactly
``InvalidValue`` or ``ParseError``, the package's two data errors; any other
exception is a traceback that a library caller would see.
"""

import math
import os
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpmatch import analysis, core, dataset, paper, report
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
from lpmatch.dataset import (
    REFERENCES,
    DistanceTable,
    builtin_table,
    normalize_name,
    parse_table,
    serialize_table,
    subset_references,
)
from lpmatch.errors import InvalidValue, LpmatchError, ParseError
from lpmatch.paper import (
    Configuration,
    build_document_set,
    build_error_table,
    build_gap_table,
    build_summary_table,
    run_builtin_grid,
    summarize_conclusions,
    sweep,
    write_document_set,
)
from lpmatch.report import (
    RenderedTable,
    build_dataset_table,
    build_error_listing,
    build_gap_listing,
    build_ranking_table,
    format_2dp,
    ranking_title,
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
JORNADAS = Profile(("a", "b"), (1.0, 2.0), Unit.JORNADAS)
DOC = RenderedTable("t", ("a",), (("x",),))
RESULTS = run_builtin_grid()
SUMMARY = summarize_conclusions(RESULTS)
M1 = MetricSpec(1)


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
    "serialize_table": lambda d: serialize_table(
        TABLE, delimiter=d(st.one_of(st.sampled_from([",", ";", "\t", "|", ";;"]), MIXED))),
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


class TruthlessNames:
    """A sequence of names whose truth value raises, as a numpy array's does."""

    def __init__(self, *names):
        self.names = names

    def __len__(self):
        return len(self.names)

    def __getitem__(self, i):
        return self.names[i]

    def __bool__(self):
        raise ValueError("the truth value of a sequence of names is ambiguous")


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
    # a value of the right type but outside its range
    (lambda: top_k(RANKING, 0), r"^k must be >= 1, got 0$"),
    (lambda: relative_error_percent(-1.0, TARGET, M1),
     r"^distance must be finite and >= 0, got -1\.0$"),
    (lambda: relative_error_percent(math.inf, TARGET, M1),
     r"^distance must be finite and >= 0, got inf$"),
    (lambda: MetricSpec(2.5), r"^metric order must be an integer >= 1, got 2\.5$"),
    (lambda: MetricSpec(0), r"^metric order must be an integer >= 1, got 0$"),
    (lambda: format_2dp(math.inf), r"^a value to format must be finite, got inf$"),
    (lambda: format_2dp(-math.inf), r"^a value to format must be finite, got -inf$"),
    (lambda: RenderedTable("t", "ab", ()),
     r"^a document header must be a sequence of cells, got 'ab'$"),
    (lambda: RenderedTable("t", ("a",), ("x",)),
     r"^a document row must be a sequence of cells, got 'x'$"),
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
    (lambda: Configuration(CLASSIC_SOLUTION, KM, (1, None), MetricSpec(1)),
     r"^a name must be a string, got 1$"),
    # every list of names is read alike: a bare string, a non-iterable and a
    # name that is not a string, wherever a list of names belongs
    (lambda: Profile("ab", (1.0, 2.0), Unit.HOURS), r"^profile names must be strings, got 'ab'$"),
    (lambda: Profile(5, (1.0,), KM), r"^profile names must be strings, got 5$"),
    (lambda: Profile((b"a", 3), (1.0, 2.0), KM), r"^a name must be a string, got b'a'$"),
    (lambda: CLASSIC_SOLUTION.jornadas.select(7),
     r"^selected references must be an iterable of names, got 7$"),
    (lambda: CLASSIC_SOLUTION.jornadas.select(("Munera", None)),
     r"^a name must be a string, got None$"),
    (lambda: target_profile(CLASSIC_SOLUTION, KM, ("Munera", 1)),
     r"^a name must be a string, got 1$"),
    (lambda: DistanceTable(KM, ("a", 2), [("x", (1, 2))]), r"^a name must be a string, got 2$"),
    (lambda: subset_references(TABLE, ("a", 2)), r"^a name must be a string, got 2$"),
    (lambda: subset_references(TABLE, ""),
     r"^references to keep must be an iterable of names, got ''$"),
    (lambda: subset_references(TABLE, TruthlessNames("a", "c")), r"^unknown reference 'c'$"),
    (lambda: builtin_table("km").row_values("Nowhere"), r"^unknown candidate 'Nowhere'$"),
    (lambda: builtin_table("km").row_values(None), r"^a name must be a string, got None$"),
    # an operand of the wrong kind, wherever it is, is named in the message
    (lambda: metric_distance(None, TARGET, TARGET), r"^spec must be a MetricSpec, got None$"),
    (lambda: metric_distance(M1, None, TARGET), r"^x must be a Profile, got None$"),
    (lambda: metric_distance(M1, TARGET, "y"), r"^y must be a Profile, got 'y'$"),
    (lambda: convert(None, KM), r"^p must be a Profile, got None$"),
    (lambda: convert(JORNADAS, "km"), r"^target must be a Unit, got 'km'$"),
    (lambda: convert(JORNADAS, KM, None), r"^rates must be a ConversionRates, got None$"),
    (lambda: magnitude(None, TARGET), r"^spec must be a MetricSpec, got None$"),
    (lambda: magnitude(M1, None), r"^p must be a Profile, got None$"),
    (lambda: relative_error_percent(1.0, None, M1), r"^target must be a Profile, got None$"),
    (lambda: relative_error_percent(1.0, TARGET, "l1"),
     r"^metric must be a MetricSpec, got 'l1'$"),
    (lambda: subset_references(None, ["a"]), r"^table must be a DistanceTable, got None$"),
    (lambda: top_k(None, 3), r"^ranking must be a sequence of RankingEntry, got None$"),
    (lambda: top_k(["x"], 3), r"^a ranking entry must be a RankingEntry, got 'x'$"),
    (lambda: serialize_table(None), r"^table must be a DistanceTable, got None$"),
    (lambda: target_profile(None, KM), r"^solution must be a SolutionProfile, got None$"),
    (lambda: target_profile(CLASSIC_SOLUTION, "km"), r"^unit must be a Unit, got 'km'$"),
    (lambda: RenderedTable("t", None, ()),
     r"^a document header must be a sequence of cells, got None$"),
    (lambda: RenderedTable("t", ("a",), None),
     r"^document rows must be a sequence of rows, got None$"),
    (lambda: RenderedTable("t", ("a",), (None,)),
     r"^a document row must be a sequence of cells, got None$"),
    (lambda: build_dataset_table(None, "t"), r"^table must be a DistanceTable, got None$"),
    (lambda: build_ranking_table(TABLE, None, RANKING, M1, title="t"),
     r"^target must be a Profile, got None$"),
    (lambda: build_error_listing(TARGET, RANKING, None, title="t"),
     r"^metric must be a MetricSpec, got None$"),
    (lambda: build_gap_listing(None, title="t"), r"^gaps must be a GapReport, got None$"),
    (lambda: ranking_title(M1, None, TABLE), r"^solution must be a SolutionProfile, got None$"),
    (lambda: sweep(("x",), (KM,), (REFERENCES,), (M1,)),
     r"^a solution must be a SolutionProfile, got 'x'$"),
    (lambda: sweep((CLASSIC_SOLUTION,), None, (REFERENCES,), (M1,)),
     r"^units must be an iterable of Unit, got None$"),
    (lambda: sweep((CLASSIC_SOLUTION,), (KM,), (REFERENCES,), ("l1",)),
     r"^a metric must be a MetricSpec, got 'l1'$"),
    (lambda: run_builtin_grid(None), r"^rates must be a ConversionRates, got None$"),
    (lambda: summarize_conclusions([1]),
     r"^results must be a mapping of Configuration to SweepResult, got \[1\]$"),
    (lambda: build_error_table({1: 2}), r"^a results key must be a Configuration, got 1$"),
    (lambda: build_gap_table({next(iter(RESULTS)): None}),
     r"^a results value must be a SweepResult, got None$"),
    (lambda: build_summary_table(None), r"^summary must be a GridSummary, got None$"),
    (lambda: build_document_set(None),
     r"^results must be a mapping of Configuration to SweepResult, got None$"),
    (lambda: write_document_set(None), r"^outdir must be a str or os.PathLike path, got None$"),
    (lambda: SolutionProfile("x", None), r"^solution jornadas must be a Profile, got None$"),
    (lambda: TARGET.aligned_values(None),
     r"^reference keys must be an iterable of names, got None$"),
    (lambda: TABLE.aligned(None), r"^profile must be a Profile, got None$"),
    (lambda: Configuration(None, KM, ("a",), M1),
     r"^configuration solution must be a SolutionProfile, got None$"),
    (lambda: Configuration(CLASSIC_SOLUTION, "km", ("a",), M1),
     r"^configuration unit must be a Unit, got 'km'$"),
    (lambda: Configuration(CLASSIC_SOLUTION, KM, ("a",), "l1"),
     r"^configuration metric must be a MetricSpec, got 'l1'$"),
    (lambda: serialize_table(TABLE, delimiter=";;"),
     r"^delimiter must be a one-character string, got ';;'$"),
    (lambda: serialize_table(TABLE, delimiter=None),
     r"^delimiter must be a one-character string, got None$"),
    (lambda: serialize_table(TABLE, delimiter=5),
     r"^delimiter must be a one-character string, got 5$"),
])
def test_wrong_types_raise_invalid_value_naming_the_field(call, message):
    with pytest.raises(InvalidValue, match=message):
        call()


class BytesPath(os.PathLike):
    """A path whose ``__fspath__`` gives bytes, which ``pathlib`` refuses."""

    def __fspath__(self):
        return b"docs"


@pytest.mark.parametrize("outdir, message", [
    ("a\x00b", r"^outdir must be a non-empty path without NUL, got 'a\\x00b'$"),
    (BytesPath(), r"^outdir must be a str or os.PathLike path, got b'docs'$"),
    ("", r"^outdir must be a non-empty path without NUL, got ''$"),
])
def test_an_outdir_that_names_no_directory_is_refused_before_the_grid(
        outdir, message, monkeypatch, tmp_path):
    # "" would name the current directory, so run where a wrong write shows
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(paper, "run_builtin_grid", lambda rates: pytest.fail("the grid ran"))
    with pytest.raises(InvalidValue, match=message):
        write_document_set(outdir)
    assert list(tmp_path.iterdir()) == []


# valid operands by parameter name, and the names of the container operands
Call = namedtuple("Call", "fn operands containers", defaults=((),))

KINDS = {
    "ConversionRates": Call(ConversionRates, {"km_per_jornada": 31.0, "hours_per_jornada": 10.0}),
    "Profile": Call(Profile, {"names": ("a", "b"), "values": (1.0, 2.0), "unit": KM},
                    ("names", "values")),
    "Profile.select": Call(TARGET.select, {"names": ("b",)}, ("names",)),
    "Profile.aligned_values": Call(TARGET.aligned_values, {"keys": ("a", "b")}, ("keys",)),
    "MetricSpec": Call(MetricSpec, {"order": 2}),
    "MetricSpec.parse": Call(MetricSpec.parse, {"token": "l2"}),
    "MetricSpec.ln": Call(MetricSpec.ln, {"n": 2}),
    "Unit.parse": Call(Unit.parse, {"token": "km"}),
    "fold_name": Call(fold_name, {"name": "a"}),
    "metric_distance": Call(metric_distance, {"spec": M1, "x": TARGET, "y": TARGET}),
    "convert": Call(convert, {"p": JORNADAS, "target": KM, "rates": DEFAULT_RATES}),
    "magnitude": Call(magnitude, {"spec": M1, "p": TARGET}),
    "DistanceTable": Call(DistanceTable, {"unit": KM, "references": ("a", "b"),
                                          "rows": [("X", (1.0, 2.0))]},
                          ("references", "rows")),
    "DistanceTable.aligned": Call(TABLE.aligned, {"profile": TARGET}),
    "DistanceTable.row_values": Call(TABLE.row_values, {"candidate": "X"}),
    "builtin_table": Call(builtin_table, {"which": "km"}),
    "normalize_name": Call(normalize_name, {"raw": "a"}),
    "parse_table": Call(parse_table, {"text": "name,a\nX,1\n", "unit": KM, "decimal": "auto"}),
    "serialize_table": Call(serialize_table, {"table": TABLE, "delimiter": ","}),
    "subset_references": Call(subset_references, {"table": TABLE, "keep": ("a",)}, ("keep",)),
    "SolutionProfile": Call(SolutionProfile, {"label": "s", "jornadas": JORNADAS}),
    "target_profile": Call(target_profile, {"solution": CLASSIC_SOLUTION, "unit": KM,
                                            "references": REFERENCES, "rates": DEFAULT_RATES},
                           ("references",)),
    "rank_candidates": Call(rank_candidates, {"table": TABLE, "target": TARGET, "metric": M1}),
    "top_k": Call(top_k, {"ranking": RANKING, "k": 1}, ("ranking",)),
    "relative_error_percent": Call(relative_error_percent,
                                   {"distance": 1.0, "target": TARGET, "metric": M1}),
    "gap_report": Call(gap_report, {"table": TABLE, "target": TARGET}),
    "RenderedTable": Call(RenderedTable, {"title": "t", "header": ("a",), "rows": (("x",),)},
                          ("header", "rows")),
    "RenderedTable.text": Call(DOC.text, {"fmt": "md"}),
    "format_2dp": Call(format_2dp, {"x": 1.5}),
    "ranking_title": Call(ranking_title, {"metric": M1, "solution": CLASSIC_SOLUTION,
                                          "table": TABLE}),
    "build_dataset_table": Call(build_dataset_table, {"table": TABLE, "title": "t"}),
    "build_ranking_table": Call(build_ranking_table,
                                {"table": TABLE, "target": TARGET, "ranking": RANKING,
                                 "metric": M1, "k": 5, "title": "t"}, ("ranking",)),
    "build_error_listing": Call(build_error_listing,
                                {"target": TARGET, "ranking": RANKING, "metric": M1, "k": 3,
                                 "title": "t"}, ("ranking",)),
    "build_gap_listing": Call(build_gap_listing, {"gaps": GAPS, "title": "t"}),
    "Configuration": Call(Configuration, {"solution": CLASSIC_SOLUTION, "unit": KM,
                                          "references": ("a",), "metric": M1},
                          ("references",)),
    "sweep": Call(sweep, {"solutions": (CLASSIC_SOLUTION,), "units": (KM,),
                          "reference_subsets": (REFERENCES,), "metrics": (M1,),
                          "rates": DEFAULT_RATES},
                  ("solutions", "units", "reference_subsets", "metrics")),
    "run_builtin_grid": Call(run_builtin_grid, {"rates": DEFAULT_RATES}),
    "summarize_conclusions": Call(summarize_conclusions, {"results": RESULTS}, ("results",)),
    "build_error_table": Call(build_error_table, {"results": RESULTS}, ("results",)),
    "build_gap_table": Call(build_gap_table, {"results": RESULTS}, ("results",)),
    "build_summary_table": Call(build_summary_table, {"summary": SUMMARY}),
    "build_document_set": Call(build_document_set, {"results": RESULTS}, ("results",)),
    # run in a scratch working directory, where the wrong-kind "x" is a path
    "write_document_set": Call(write_document_set,
                               {"outdir": "docs", "fmt": "md", "rates": DEFAULT_RATES}),
}

# public callables of __all__ that KINDS leaves out, each with its reason
RESULT_TYPE = "a named-tuple result, built by the package and trusted by kind"
EXEMPT = {
    "Unit": "an Enum lookup by value, whose misses raise the ValueError of every Enum",
    "RankingEntry": RESULT_TYPE,
    "GapRecord": RESULT_TYPE,
    "GapReport": RESULT_TYPE,
    "SweepResult": RESULT_TYPE,
    "FamilyStats": RESULT_TYPE,
    "GridSummary": RESULT_TYPE,
    "ExternalResultRow": RESULT_TYPE,
}
METHODS = {"Profile.select", "Profile.aligned_values", "MetricSpec.parse", "MetricSpec.ln",
           "Unit.parse", "DistanceTable.aligned", "DistanceTable.row_values",
           "RenderedTable.text"}

WRONG = (None, 1.5, "x", b"x", (), object())
WRONG_CONTAINERS = WRONG + ([None], {None: None})


def public_callables():
    return {name for module in (core, dataset, analysis, report, paper)
            for name in module.__all__ if callable(getattr(module, name))}


def test_every_public_callable_has_a_kind_row():
    public = public_callables()
    assert set(EXEMPT) <= public
    assert set(KINDS) == (public - set(EXEMPT)) | METHODS


@pytest.mark.parametrize("name", sorted(KINDS))
def test_the_valid_operands_give_a_result(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    call = KINDS[name]
    call.fn(**call.operands)


@pytest.mark.parametrize("name, operand", [
    (name, operand) for name in sorted(KINDS) for operand in KINDS[name].operands
])
def test_an_operand_of_the_wrong_kind_gives_a_result_or_a_data_error(
        name, operand, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    call = KINDS[name]
    escaped = []
    for wrong in WRONG_CONTAINERS if operand in call.containers else WRONG:
        try:
            call.fn(**{**call.operands, operand: wrong})
        except Exception as exc:
            if type(exc) not in (InvalidValue, ParseError):
                escaped.append(f"{operand}={wrong!r}: {type(exc).__name__}: {exc}")
    assert not escaped, escaped
