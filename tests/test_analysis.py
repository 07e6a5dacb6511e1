import math
import pickle
import sys
from typing import NamedTuple

import pytest

from lpmatch import analysis
from lpmatch.analysis import (
    BUILTIN_SOLUTIONS,
    CLASSIC_SOLUTION,
    REFINED_SOLUTION,
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
from lpmatch.core import ConversionRates, MetricSpec, Profile, Unit
from lpmatch.dataset import REFERENCES, DistanceTable, builtin_table, subset_references
from lpmatch.paper import (
    Configuration,
    ExternalResultRow,
    FamilyStats,
    GridSummary,
    SweepResult,
    run_builtin_grid,
    summarize_conclusions,
    sweep,
)
from lpmatch.report import RenderedTable, build_ranking_table
from lpmatch.errors import InvalidValue

L1 = MetricSpec.ln(1)
L2 = MetricSpec.ln(2)
LINF = MetricSpec.infinity()

KM = builtin_table("km")
HOURS = builtin_table("hours")
CLASSIC_KM = target_profile(CLASSIC_SOLUTION, Unit.KILOMETERS)
CLASSIC_HOURS = target_profile(CLASSIC_SOLUTION, Unit.HOURS)
REFINED_HOURS_3 = target_profile(REFINED_SOLUTION, Unit.HOURS, REFERENCES[:3])


def row_profile(table, name):
    """The profile of one candidate's row of ``table``."""
    return Profile(table.references, table.row_values(name), table.unit)


class TestSolutions:
    def test_builtin_labels(self):
        assert set(BUILTIN_SOLUTIONS) == {"classic", "refined"}
        assert CLASSIC_SOLUTION.jornadas.values == (2.0, 2.37, 2.5, 2.0)
        assert REFINED_SOLUTION.jornadas.values == (2.0, 2.42, 2.8, 2.23)

    def test_solution_must_be_in_jornadas(self):
        with pytest.raises(InvalidValue, match="a solution profile must be expressed in jornadas"):
            SolutionProfile("bad", Profile(("a",), (1.0,), Unit.KILOMETERS))

    def test_target_profile_converts_and_restricts(self):
        assert CLASSIC_KM.values == pytest.approx((62.0, 73.47, 77.5, 62.0))
        three = target_profile(CLASSIC_SOLUTION, Unit.HOURS, REFERENCES[:3])
        assert three.names == REFERENCES[:3]
        assert three.values == pytest.approx((20.0, 23.7, 25.0))


class TestConfiguration:
    def test_rejects_jornadas(self):
        with pytest.raises(InvalidValue,
                           match="data tables exist in kilometers and hours, not jornadas"):
            Configuration(CLASSIC_SOLUTION, Unit.JORNADAS, REFERENCES, L1)

    def test_rejects_empty_references(self):
        with pytest.raises(InvalidValue):
            Configuration(CLASSIC_SOLUTION, Unit.KILOMETERS, (), L1)

    def test_labels_and_key(self):
        config = Configuration(REFINED_SOLUTION, Unit.HOURS, REFERENCES[:3], LINF)
        assert config.key == ("refined", "hours", 3, "linf")
        assert config.family_label == "refined hours 3-ref"
        assert config.label == "refined hours 3-ref L_inf"


class TestRankCandidates:
    def test_km_classic_l1_golden(self):
        ranking = rank_candidates(KM, CLASSIC_KM, L1)
        assert ranking[0].candidate == "Villanueva de los Infantes"
        assert ranking[0].distance == pytest.approx(16.77, abs=0.005)
        assert ranking[1].candidate == "Carrizosa"
        assert ranking[1].distance == pytest.approx(19.41, abs=0.005)

    def test_km_refined_no_munera_linf_golden(self):
        table = subset_references(KM, REFERENCES[:3])
        target = target_profile(REFINED_SOLUTION, Unit.KILOMETERS, REFERENCES[:3])
        ranking = rank_candidates(table, target, LINF)
        assert ranking[0].candidate == "Villanueva de los Infantes"
        assert ranking[0].distance == pytest.approx(4.24, abs=0.005)

    def test_self_match_ranks_first_at_zero(self):
        target = row_profile(KM, "Carrizosa")
        ranking = rank_candidates(KM, target, L2)
        assert ranking[0].candidate == "Carrizosa"
        assert ranking[0].distance == 0.0

    def test_exact_tie_broken_by_l2_then_name(self):
        ranking = rank_candidates(HOURS, CLASSIC_HOURS, LINF)
        third, fourth = ranking[2], ranking[3]
        assert third.candidate == "Villanueva de los Infantes"
        assert fourth.candidate == "Fuenllana"
        assert third.distance == fourth.distance  # a true tie, not a near-tie

    def test_ranks_are_contiguous_and_distances_sorted(self):
        ranking = rank_candidates(KM, CLASSIC_KM, L2)
        assert [e.rank for e in ranking] == list(range(1, 25))
        distances = [e.distance for e in ranking]
        assert distances == sorted(distances)

    def test_unit_mismatch(self):
        with pytest.raises(InvalidValue,
                           match="target is in hours but the table is in kilometers"):
            rank_candidates(KM, CLASSIC_HOURS, L2)

    @pytest.mark.parametrize("call", [
        lambda: KM.aligned(CLASSIC_HOURS),
        # else the hours values would be shown under km headers
        lambda: build_ranking_table(KM, CLASSIC_HOURS, rank_candidates(HOURS, CLASSIC_HOURS, L2),
                                    L2, title="T"),
    ], ids=["aligned", "build_ranking_table"])
    def test_alignment_refuses_a_target_in_another_unit(self, call):
        with pytest.raises(InvalidValue,
                           match="^target is in hours but the table is in kilometers$"):
            call()

    def test_reference_mismatch_names_the_unmatched_references(self):
        target = Profile(REFERENCES[:3] + ("Ruidera",), (1.0, 2.0, 3.0, 4.0), Unit.KILOMETERS)
        with pytest.raises(InvalidValue, match="unmatched: munera, ruidera"):
            rank_candidates(KM, target, L2)

    @pytest.mark.parametrize("metric, named", [
        (MetricSpec.ln(3), "l2"),  # X's l3 fits, its l2 does not; Y's l3 does not
        (LINF, "l2"),
        (L1, "l1"),  # X's l1 is checked before its l2
    ])
    def test_overflow_names_the_metric_of_the_first_row_to_overflow(self, metric, named):
        # rows are checked in table order, each row's distance before its tie-break
        table = DistanceTable(Unit.KILOMETERS, ("a", "b", "c"),
                              [("X", (1.3e308, 1.3e308, 1.0)), ("Y", (1.7e308,) * 3)])
        target = Profile(("a", "b", "c"), (1.0, 1.0, 1.0), Unit.KILOMETERS)
        with pytest.raises(InvalidValue, match=f"^the {named} distance exceeds"):
            rank_candidates(table, target, metric)

    @pytest.mark.parametrize("metric", [L1, L2, MetricSpec.ln(3), LINF])
    def test_distance_beyond_the_largest_double_is_invalid(self, metric):
        # under L_inf the distances fit, but their L2 tie-break keys do not
        table = DistanceTable(Unit.KILOMETERS, ("a", "b", "c"),
                              [("X", (1.7e308,) * 3), ("Y", (1.6e308, 1.7e308, 1.5e308))])
        target = Profile(("a", "b", "c"), (31.0, 62.0, 93.0), Unit.KILOMETERS)
        with pytest.raises(InvalidValue, match="exceeds the largest double"):
            rank_candidates(table, target, metric)


DBL_MAX = sys.float_info.max
FOUR = ("a", "b", "c", "d")  # R = 4 references, so DBL_MAX / sqrt(R) = DBL_MAX / 2
AT_ZERO = Profile(FOUR, (0.0,) * 4, Unit.KILOMETERS)  # each difference is the value itself


def four_column_table(*rows):
    return DistanceTable(Unit.KILOMETERS, FOUR, [(f"r{i}", row) for i, row in enumerate(rows)])


def ranked(table, metric):
    return [(e.candidate, e.distance.hex()) for e in rank_candidates(table, AT_ZERO, metric)]


class TestTieBreakOverflow:
    """A row's L2 is at most sqrt(R) times its largest difference, which is
    at most any of its Lp distances.  So the tie-break is computed for tied
    rows only while sqrt(R) times the largest distance stays below half the
    largest double.  On either side of that bound the results and errors are
    the ones the full L2 pass gives."""

    @pytest.mark.parametrize("metric", [LINF, MetricSpec.ln(3)], ids=["linf", "l3"])
    def test_largest_difference_just_below_the_l2_limit(self, metric):
        peak = math.nextafter(DBL_MAX / 2, 0.0)  # the L2 of (peak,) * 4 is 2 * peak
        table = four_column_table((1.0,) * 4, (peak,) * 4, (peak, peak, peak, 1.0))
        expected = {
            "linf": [("R0", "0x1.0000000000000p+0"), ("R2", "0x1.ffffffffffffep+1022"),
                     ("R1", "0x1.ffffffffffffep+1022")],  # tied; R2 has the smaller L2
            "l3": [("R0", "0x1.965fea53d6e3cp+0"), ("R2", "0x1.7137449123ef5p+1023"),
                   ("R1", "0x1.965fea53d6e3ap+1023")],
        }[metric.token]
        assert ranked(table, metric) == expected

    @pytest.mark.parametrize("metric", [LINF, MetricSpec.ln(3)], ids=["linf", "l3"])
    def test_largest_difference_just_above_the_l2_limit(self, metric):
        # the distances fit; only the L2 tie-break of R1 overflows, and no
        # distance is tied
        peak = math.nextafter(DBL_MAX / 2, math.inf)
        table = four_column_table((1.0,) * 4, (peak,) * 4, (peak / 2, 1.0, 1.0, 1.0))
        with pytest.raises(InvalidValue, match=r"^the l2 distance exceeds the largest double$"):
            rank_candidates(table, AT_ZERO, metric)

    def test_l1_near_the_largest_double(self):
        quarter = DBL_MAX / 4 * (1 - 2**-10)
        table = four_column_table((1.0,) * 4, (quarter,) * 4,
                                  (2 * quarter, quarter, quarter / 2, quarter / 2))
        assert ranked(table, L1) == [  # R1 and R2 tie; R1 has the smaller L2
            ("R0", "0x1.0000000000000p+2"), ("R1", "0x1.ff7ffffffffffp+1023"),
            ("R2", "0x1.ff7ffffffffffp+1023")]
        over = four_column_table((1.0,) * 4, (DBL_MAX / 2, DBL_MAX / 2, DBL_MAX / 2, 1.0))
        with pytest.raises(InvalidValue, match=r"^the l1 distance exceeds the largest double$"):
            rank_candidates(over, AT_ZERO, L1)

    def test_gap_report_names_the_l2_overflow_of_its_first_metric(self):
        peak = math.nextafter(DBL_MAX / 2, math.inf)
        table = four_column_table((1.0,) * 4, (peak,) * 4)
        target = Profile(FOUR, (1.0,) * 4, Unit.KILOMETERS)
        with pytest.raises(InvalidValue, match=r"^the l2 distance exceeds the largest double$"):
            gap_report(table, target)

    @pytest.mark.parametrize("km_per_jornada, metric, named", [
        (5e307, L1, "l1"), (5e307, MetricSpec.ln(3), "l2"), (5e307, LINF, "l2"),
        (5e307, L2, "l2"), (3e307, L2, "l1"), (3e307, LINF, "l1"),
    ])
    def test_sweep_names_the_overflow_that_ranking_its_metrics_in_turn_meets_first(
            self, km_per_jornada, metric, named):
        # a family ranks the sweep's metric, then L_inf, L_1 and L_2; each
        # ranking walks its rows checking the distance before the tie-break
        rates = ConversionRates(km_per_jornada, 10.0)
        with pytest.raises(InvalidValue, match=f"^the {named} distance exceeds the largest"):
            sweep((CLASSIC_SOLUTION,), (Unit.KILOMETERS,), (REFERENCES,), (metric,), rates=rates)

    @pytest.mark.parametrize("metric", [LINF, L1, L2, MetricSpec.ln(3), None],
                             ids=["linf", "l1", "l2", "l3", "gap_report"])
    def test_only_tied_rows_get_an_l2_below_the_bound(self, metric, monkeypatch):
        big = DBL_MAX / 20  # sqrt(4) * every distance stays below DBL_MAX / 2
        table = four_column_table((big, big, 1.0, 1.0), (1.0, big, big, big), (big,) * 4,
                                  (2.0,) * 4, (2.0,) * 4)
        reduced = []

        def recorded(spec, columns):
            reduced.append((spec.token, len(columns[0])))
            return norms(spec, columns)

        norms = analysis._norms
        monkeypatch.setattr(analysis, "_norms", recorded)
        if metric is None:
            # a family ranks L_inf, L_1 and L_2 in turn, each breaking its
            # own ties, L_2 with its own distances; the target is off zero so
            # that it has a magnitude
            target = Profile(FOUR, (1.0,) * 4, Unit.KILOMETERS)
            records = gap_report(table, target).records
            assert reduced == [("linf", 5), ("l2", 5), ("l1", 5), ("l2", 2), ("l2", 5)]
            assert [(r.first, r.second) for r in records] == [("R3", "R4")] * 3
            return
        names = [name for name, _ in ranked(table, metric)]
        if metric == L2:  # its tied rows' L2 is their distance
            assert reduced == [("l2", 5)]
        else:
            tied = {"linf": 5, "l1": 2, "l3": 2}[metric.token]  # R0-R2 tie under L_inf
            assert reduced == [(metric.token, 5), ("l2", tied)]
        assert names == ["R3", "R4", "R0", "R1", "R2"]

    @pytest.mark.parametrize("metric", [LINF, L1, L2, MetricSpec.ln(3), None],
                             ids=["linf", "l1", "l2", "l3", "gap_report"])
    def test_every_row_gets_one_l2_above_the_bound(self, metric, monkeypatch):
        # sqrt(4) * DBL_MAX / 3 crosses DBL_MAX / 2, yet no L2 overflows; the
        # one full-table L2 pass is both the tie-break and the overflow check,
        # and an L2 ranking's own distance pass is that pass
        third = DBL_MAX / 3
        table = four_column_table((third, 1.0, 1.0, 1.0), (1.0, third, 1.0, 1.0),
                                  (third, 1.0, 1.0, 1.0), (2.0,) * 4, (2.0,) * 4)
        target = Profile(FOUR, (1.0,) * 4, Unit.KILOMETERS)
        reduced = []

        def recorded(spec, columns):
            reduced.append((spec.token, len(columns[0])))
            return norms(spec, columns)

        norms = analysis._norms
        monkeypatch.setattr(analysis, "_norms", recorded)
        if metric is None:
            records = gap_report(table, target).records
            assert reduced == [("linf", 5), ("l2", 5), ("l1", 5), ("l2", 5), ("l2", 5)]
            assert [(r.first, r.second) for r in records] == [("R3", "R4")] * 3
            return
        names = [e.candidate for e in rank_candidates(table, target, metric)]
        assert reduced == [(metric.token, 5)] + [("l2", 5)] * (metric != L2)
        assert names == ["R3", "R4", "R0", "R1", "R2"]

    @pytest.mark.parametrize("metric", [LINF, L1, L2, MetricSpec.ln(3)],
                             ids=["linf", "l1", "l2", "l3"])
    def test_one_candidate_above_the_bound(self, metric):
        # a lone row beyond the bound still gets its L2, from a one-row column
        # pick, and its distance is the metric's own
        table = four_column_table((DBL_MAX / 3, 1.0, 1.0, 1.0))
        expected = {"linf": DBL_MAX / 3, "l1": math.fsum((DBL_MAX / 3, 3.0)),
                    "l2": math.hypot(DBL_MAX / 3, 1.0, 1.0, 1.0),
                    "l3": DBL_MAX / 3}[metric.token]
        assert rank_candidates(table, AT_ZERO, metric) == [RankingEntry("R0", expected, 1)]


class TestRankingEntry:
    def test_fields_equality_and_repr(self):
        entry = rank_candidates(KM, row_profile(KM, "Carrizosa"), L2)[0]
        assert entry == RankingEntry("Carrizosa", 0.0, 1)
        assert entry == ("Carrizosa", 0.0, 1)  # also a plain tuple
        assert (entry.candidate, entry.distance, entry.rank) == ("Carrizosa", 0.0, 1)
        assert type(entry) is RankingEntry
        assert repr(entry) == "RankingEntry(candidate='Carrizosa', distance=0.0, rank=1)"

    def test_immutable(self):
        entry = RankingEntry("X", 1.5, 1)
        with pytest.raises(AttributeError):
            entry.rank = 2
        assert entry == RankingEntry("X", 1.5, 1)
        assert hash(entry) == hash(RankingEntry("X", 1.5, 1))


class TestTopK:
    def test_default_five_golden(self):
        ranking = rank_candidates(KM, CLASSIC_KM, LINF)
        assert [e.candidate for e in top_k(ranking)] == [
            "Alcubillas",
            "Carrizosa",
            "Villanueva de los Infantes",
            "Fuenllana",
            "Alhambra",
        ]

    def test_clamps_to_table_size(self):
        ranking = rank_candidates(KM, CLASSIC_KM, LINF)
        assert len(top_k(ranking, 100)) == 24

    def test_k1_on_refined_km_golden(self):
        target = target_profile(REFINED_SOLUTION, Unit.KILOMETERS)
        best = top_k(rank_candidates(KM, target, LINF), 1)
        assert len(best) == 1
        assert best[0].candidate == "Villanueva de los Infantes"
        assert best[0].distance == pytest.approx(8.13, abs=0.005)

    def test_k_must_be_positive(self):
        with pytest.raises(InvalidValue):
            top_k([], 0)


class TestRelativeError:
    def test_l1_golden(self):
        assert relative_error_percent(16.77, CLASSIC_KM, L1) == pytest.approx(6.10, abs=0.01)

    def test_linf_golden(self):
        assert relative_error_percent(9.14, CLASSIC_KM, LINF) == pytest.approx(11.79, abs=0.01)

    def test_l2_golden(self):
        assert relative_error_percent(10.67, CLASSIC_KM, L2) == pytest.approx(7.72, abs=0.01)

    def test_zero_distance(self):
        assert relative_error_percent(0.0, CLASSIC_KM, L2) == 0.0

    def test_error_beyond_the_largest_double_is_invalid(self):
        with pytest.raises(InvalidValue, match="exceeds the largest double"):
            relative_error_percent(1.7e308, CLASSIC_KM, LINF)

    def test_error_that_fits_a_double_survives_a_huge_distance(self):
        target = Profile(("a",), (1000.0,), Unit.KILOMETERS)
        assert relative_error_percent(1.7e308, target, LINF) == 1.7e308 / 1000.0 * 100.0

    def test_degenerate_target(self):
        zero = Profile(("a",), (0.0,), Unit.KILOMETERS)
        with pytest.raises(InvalidValue, match="target profile has zero magnitude"):
            relative_error_percent(1.0, zero, L2)

    def test_monotone_in_distance(self):
        errors = [relative_error_percent(d, CLASSIC_KM, L2) for d in (0.0, 1.0, 2.5, 80.0)]
        assert errors == sorted(errors)
        assert len(set(errors)) == len(errors)


class TestGapReport:
    def test_refined_km_no_munera_golden(self):
        table = subset_references(KM, REFERENCES[:3])
        target = target_profile(REFINED_SOLUTION, Unit.KILOMETERS, REFERENCES[:3])
        gaps = gap_report(table, target)
        by_metric = {r.metric.token: r.gap for r in gaps.records}
        assert by_metric["linf"] == pytest.approx(4.63, abs=0.02)
        assert by_metric["l1"] == pytest.approx(1.38, abs=0.02)
        assert by_metric["l2"] == pytest.approx(3.17, abs=0.02)
        assert gaps.mean_gap == pytest.approx(3.06, abs=0.02)

    def test_classic_km_mean_golden(self):
        gaps = gap_report(KM, CLASSIC_KM)
        assert gaps.mean_gap == pytest.approx(0.97, abs=0.02)

    def test_mean_is_the_mean_of_the_gaps(self):
        gaps = gap_report(HOURS, CLASSIC_HOURS)
        assert gaps.mean_gap == pytest.approx(
            math.fsum(r.gap for r in gaps.records) / 3, abs=1e-12
        )

    def test_equidistant_top_two_gives_zero_gap(self):
        table = DistanceTable(
            Unit.KILOMETERS,
            ("a", "b"),
            [("North", (9.0, 11.0)), ("South", (11.0, 9.0)), ("Far", (30.0, 30.0))],
        )
        target = Profile(("a", "b"), (10.0, 10.0), Unit.KILOMETERS)
        gaps = gap_report(table, target)
        for record in gaps.records:
            assert record.gap == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_candidates(self):
        table = DistanceTable(Unit.KILOMETERS, ("a",), [("Only", (5.0,))])
        with pytest.raises(InvalidValue, match="gap analysis needs at least two candidates"):
            gap_report(table, Profile(("a",), (1.0,), Unit.KILOMETERS))

    def test_gaps_are_non_negative(self):
        for table, target in ((KM, CLASSIC_KM), (HOURS, CLASSIC_HOURS)):
            for record in gap_report(table, target).records:
                assert record.gap >= 0.0


class TestSweep:
    def test_full_grid_has_24_configurations(self):
        results = run_builtin_grid()
        assert len(results) == 24
        keys = {config.key for config in results}
        assert len(keys) == 24

    def test_single_element_sweep_matches_rank_candidates(self):
        results = sweep((CLASSIC_SOLUTION,), (Unit.KILOMETERS,), (REFERENCES,), (L1,))
        assert len(results) == 1
        (config, result), = results.items()
        assert config.key == ("classic", "km", 4, "l1")
        assert list(result.ranking) == rank_candidates(KM, CLASSIC_KM, L1)

    def test_refined_half_always_ranks_villanueva_first(self):
        results = run_builtin_grid()
        refined = [r for c, r in results.items() if c.solution.label == "refined"]
        assert len(refined) == 12
        assert all(r.ranking[0].candidate == "Villanueva de los Infantes" for r in refined)

    def test_ranks_and_scales_each_family_metric_once(self, monkeypatch):
        calls = {"rank": 0, "magnitude": 0}
        reduced = []  # the number of rows of each reduction

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def recorded(spec, columns):
            reduced.append(len(columns[0]))
            return norms(spec, columns)

        # one ranking pass per family, one full-table reduction and one
        # relative-error scale per family metric; the L2 tie-break reduces
        # only tied rows, and the grid has two runs of two tied rows
        norms = analysis._norms
        monkeypatch.setattr(analysis, "_rankings", counted("rank", analysis._rankings))
        monkeypatch.setattr(analysis, "_norms", recorded)
        monkeypatch.setattr(analysis, "magnitude", counted("magnitude", analysis.magnitude))
        run_builtin_grid()
        assert calls == {"rank": 8, "magnitude": 24}
        assert reduced.count(len(KM)) == 24
        assert sorted(rows for rows in reduced if rows != len(KM)) == [2, 2]

    def test_gaps_are_shared_with_a_standalone_gap_report(self):
        results = sweep((REFINED_SOLUTION,), (Unit.HOURS,), (REFERENCES[:3],), (MetricSpec.ln(3),))
        (config, result), = results.items()
        restricted = subset_references(HOURS, REFERENCES[:3])
        assert result.gaps == gap_report(restricted, REFINED_HOURS_3)
        assert list(result.ranking) == rank_candidates(restricted, REFINED_HOURS_3, config.metric)
        assert result.errors == tuple(
            relative_error_percent(e.distance, REFINED_HOURS_3, config.metric)
            for e in result.ranking
        )

    def test_errors_align_with_ranking(self):
        results = run_builtin_grid()
        for config, result in results.items():
            assert len(result.errors) == len(result.ranking)
            assert list(result.errors) == sorted(result.errors)


@pytest.fixture(scope="module")
def summary():
    return summarize_conclusions(run_builtin_grid())


class TestSummarizeConclusions:
    def test_classic_without_munera_elects_carrizosa(self, summary):
        tops = {c.key: name for c, name in summary.top_candidates}
        for unit in ("km", "hours"):
            for metric in ("linf", "l1", "l2"):
                assert tops[("classic", unit, 3, metric)] == "Carrizosa"

    def test_classic_linf_with_munera_elects_alcubillas(self, summary):
        tops = {c.key: name for c, name in summary.top_candidates}
        assert tops[("classic", "km", 4, "linf")] == "Alcubillas"
        assert tops[("classic", "hours", 4, "linf")] == "Alcubillas"

    def test_best_gap_family_is_refined_without_munera(self, summary):
        best = summary.highest_mean_gap_family
        assert best.solution == "refined"
        assert len(best.references) == 3

    def test_lowest_error_family_is_refined_without_munera(self, summary):
        lowest = summary.lowest_error_family
        assert lowest.solution == "refined"
        assert len(lowest.references) == 3

    def test_units_agree_on_top5_name_sets(self, summary):
        assert summary.unit_pairs_agree
        assert summary.disagreeing_pairs == ()

    def test_eight_families(self, summary):
        assert len(summary.families) == 8

    def test_subsets_of_one_size_are_two_families(self):
        # both subsets have three references, so their Configuration.key is
        # the same; a family is keyed by its references, not their count
        summary = summarize_conclusions(
            sweep((CLASSIC_SOLUTION,), (Unit.KILOMETERS,), (REFERENCES[:3], REFERENCES[1:]), (L1,)))
        assert [family.references for family in summary.families] == [
            REFERENCES[:3], REFERENCES[1:]]
        assert [round(family.mean_gap, 2) for family in summary.families] == [1.78, 0.43]
        assert summary.highest_mean_gap_family.references == REFERENCES[:3]
        assert summary.lowest_mean_gap_family.references == REFERENCES[1:]

    def test_units_are_compared_within_one_reference_subset(self):
        results = sweep((CLASSIC_SOLUTION,), (Unit.KILOMETERS, Unit.HOURS),
                        (REFERENCES[:3], REFERENCES[1:]), (L1,))
        first_km, first_hours, second_km, second_hours = results
        assert summarize_conclusions(results).disagreeing_pairs == ()
        # the second subset's top five holds Alhambra, the first subset's
        # does not; a merge of the two subsets compared only the second's runs
        mixed = {**results, first_hours: results[second_hours]}
        assert summarize_conclusions(mixed).disagreeing_pairs == (("classic", 3, "l1"),)

    def test_no_results_raise_invalid_value(self):
        for results in ({}, sweep((), (), (), ())):
            with pytest.raises(InvalidValue, match=r"^there are no results to summarize$"):
                summarize_conclusions(results)


class RecordCase(NamedTuple):
    cls: type
    fields: dict  # keyword construction, in field order
    expected_repr: str
    defaults: dict = {}  # the fields that may be left out, with their values
    coercions: tuple = ()  # (field overrides, field, stored value)
    invalid: tuple = ()  # (field overrides, error type, message pattern)


_PROFILE = Profile(("a", "b"), (1.0, 2.0), Unit.JORNADAS)
_PROFILE_REPR = "Profile(names=('a', 'b'), values=(1.0, 2.0), unit=<Unit.JORNADAS: 'jornadas'>)"
_SOLUTION = SolutionProfile("s", _PROFILE)
_SOLUTION_REPR = f"SolutionProfile(label='s', jornadas={_PROFILE_REPR})"
_CONFIG = Configuration(_SOLUTION, Unit.KILOMETERS, ("a",), MetricSpec(2))
_CONFIG_REPR = (f"Configuration(solution={_SOLUTION_REPR}, unit=<Unit.KILOMETERS: 'kilometers'>, "
                "references=('a',), metric=MetricSpec(order=2))")
_GAP = GapRecord(MetricSpec(1), "A", 1.5, "B", 2.0, 0.5)
_GAP_REPR = ("GapRecord(metric=MetricSpec(order=1), first='A', first_error=1.5, "
             "second='B', second_error=2.0, gap=0.5)")
_FAMILY = FamilyStats("f", "s", Unit.HOURS, ("a",), 0.5, 1.25)
_FAMILY_REPR = ("FamilyStats(label='f', solution='s', unit=<Unit.HOURS: 'hours'>, "
                "references=('a',), mean_gap=0.5, mean_top_error=1.25)")
_TARGET_KM = Profile(("a",), (31.0,), Unit.KILOMETERS)

RECORD_CASES = [
    RecordCase(
        ConversionRates, {"km_per_jornada": 31.0, "hours_per_jornada": 10.0},
        "ConversionRates(km_per_jornada=31.0, hours_per_jornada=10.0)",
        defaults={"km_per_jornada": 31.0, "hours_per_jornada": 10.0},
        invalid=(({"km_per_jornada": 0.0}, InvalidValue,
                  r"^km_per_jornada must be finite and > 0, got 0\.0$"),
                 ({"hours_per_jornada": math.inf}, InvalidValue,
                  r"^hours_per_jornada must be finite and > 0, got inf$")),
    ),
    RecordCase(
        Profile, {"names": ("a", "b"), "values": (1.0, 2.0), "unit": Unit.JORNADAS},
        _PROFILE_REPR,
        coercions=(({"names": ["a", "b"]}, "names", ("a", "b")),
                   ({"values": [1, "2.5"]}, "values", (1.0, 2.5))),
        invalid=(({"values": (1.0, -1.0)}, InvalidValue,
                  r"^distance for 'b' must be finite and >= 0, got -1\.0$"),
                 ({"names": ("a", " A ")}, InvalidValue,
                  r"^reference names must be unique after normalization$"),
                 ({"names": ("a", " ")}, InvalidValue, r"^blank reference name in profile$"),
                 ({"names": ("a", 2)}, InvalidValue, r"^a name must be a string, got 2$"),
                 ({"values": (1.0,)}, InvalidValue,
                  r"^a profile needs exactly one value per reference name$"),
                 ({"names": (), "values": ()}, InvalidValue,
                  r"^a profile needs at least one entry$"),
                 ({"unit": "jornadas"}, InvalidValue,
                  r"^profile unit must be a Unit, got 'jornadas'$")),
    ),
    RecordCase(
        MetricSpec, {"order": 2}, "MetricSpec(order=2)",
        defaults={"order": None},
        coercions=(({"order": 3.0}, "order", 3), ({"order": True}, "order", 1)),
        invalid=(({"order": 0}, InvalidValue, r"^metric order must be an integer >= 1, got 0$"),
                 ({"order": 2.5}, InvalidValue, r"got 2\.5$"),
                 ({"order": 0.0}, InvalidValue, r"got 0\.0$")),
    ),
    RecordCase(
        SolutionProfile, {"label": "s", "jornadas": _PROFILE}, _SOLUTION_REPR,
        invalid=(({"jornadas": _TARGET_KM}, InvalidValue,
                  r"^a solution profile must be expressed in jornadas$"),),
    ),
    RecordCase(
        Configuration,
        {"solution": _SOLUTION, "unit": Unit.KILOMETERS, "references": ("a",),
         "metric": MetricSpec(2)},
        _CONFIG_REPR,
        coercions=(({"references": ["a", "b"]}, "references", ("a", "b")),),
        invalid=(({"references": []}, InvalidValue,
                  r"^a configuration needs at least one reference$"),
                 ({"unit": Unit.JORNADAS}, InvalidValue,
                  r"^data tables exist in kilometers and hours, not jornadas$")),
    ),
    RecordCase(
        GapRecord,
        {"metric": MetricSpec(1), "first": "A", "first_error": 1.5, "second": "B",
         "second_error": 2.0, "gap": 0.5},
        _GAP_REPR,
    ),
    RecordCase(
        GapReport, {"records": (_GAP,), "mean_gap": 0.5},
        f"GapReport(records=({_GAP_REPR},), mean_gap=0.5)",
    ),
    RecordCase(
        SweepResult,
        {"ranking": (RankingEntry("A", 1.0, 1),), "errors": (2.0,),
         "gaps": GapReport((_GAP,), 0.5),
         "table": DistanceTable(Unit.KILOMETERS, ("a",), [("A", (1.0,))]),
         "target": _TARGET_KM},
        "SweepResult(ranking=(RankingEntry(candidate='A', distance=1.0, rank=1),), "
        f"errors=(2.0,), gaps=GapReport(records=({_GAP_REPR},), mean_gap=0.5), "
        "table=DistanceTable(1 candidates x 1 references, kilometers), "
        "target=Profile(names=('a',), values=(31.0,), unit=<Unit.KILOMETERS: 'kilometers'>))",
    ),
    RecordCase(
        FamilyStats,
        {"label": "f", "solution": "s", "unit": Unit.HOURS, "references": ("a",),
         "mean_gap": 0.5, "mean_top_error": 1.25},
        _FAMILY_REPR,
    ),
    RecordCase(
        GridSummary,
        {"top_candidates": ((_CONFIG, "A"),), "families": (_FAMILY,),
         "lowest_error_family": _FAMILY, "highest_mean_gap_family": _FAMILY,
         "lowest_mean_gap_family": _FAMILY, "unit_pairs_agree": True,
         "disagreeing_pairs": ()},
        f"GridSummary(top_candidates=(({_CONFIG_REPR}, 'A'),), families=({_FAMILY_REPR},), "
        f"lowest_error_family={_FAMILY_REPR}, highest_mean_gap_family={_FAMILY_REPR}, "
        f"lowest_mean_gap_family={_FAMILY_REPR}, unit_pairs_agree=True, disagreeing_pairs=())",
    ),
    RecordCase(
        ExternalResultRow,
        {"source": "[7]", "entries": (("A", 8.3),), "gap": 2.08, "mean": None},
        "ExternalResultRow(source='[7]', entries=(('A', 8.3),), gap=2.08, mean=None)",
        defaults={"gap": None, "mean": None},
    ),
    RecordCase(
        RenderedTable,
        {"title": "T", "header": ("a", "b"), "rows": (("1", "2"),)},
        "RenderedTable(title='T', header=('a', 'b'), rows=(('1', '2'),))",
        invalid=(({"rows": (("1",),)}, InvalidValue,
                  r"^every row must match the header arity$"),),
    ),
]


def test_a_rendered_table_has_no_format_and_refuses_an_unknown_one():
    table = RenderedTable("T", ("a", "b"), (("1", "2"),))
    assert RenderedTable._fields == ("title", "header", "rows")
    with pytest.raises(InvalidValue, match=r"^unknown format 'xml'$"):
        table.text("xml")


def _case_id(case):
    return case.cls.__name__


@pytest.mark.parametrize("case", RECORD_CASES, ids=_case_id)
def test_record_contract(case):
    record = case.cls(**case.fields)
    assert type(record) is case.cls
    assert repr(record) == case.expected_repr
    values = tuple(case.fields.values())
    assert tuple(getattr(record, field) for field in case.fields) == values
    assert case.cls(*values) == record
    given = {field: v for field, v in case.fields.items() if field not in case.defaults}
    defaulted = case.cls(**given)
    assert {field: getattr(defaulted, field) for field in case.defaults} == case.defaults

    first = next(iter(case.fields))
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    assert getattr(record, first) == case.fields[first]

    try:
        expected_hash = hash(values)
    except TypeError:  # a DistanceTable field is unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected_hash

    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is case.cls
    assert restored == record
    assert repr(restored) == repr(record)

    for overrides, field, stored in case.coercions:
        value = getattr(case.cls(**{**case.fields, **overrides}), field)
        assert value == stored
        assert type(value) is type(stored)
    for overrides, error, message in case.invalid:
        with pytest.raises(error, match=message):
            case.cls(**{**case.fields, **overrides})


def test_configuration_and_metric_spec_are_dict_keys():
    grid = run_builtin_grid()
    config = next(iter(grid))
    rebuilt = Configuration(config.solution, config.unit, list(config.references),
                            MetricSpec(config.metric.order))
    assert rebuilt == config
    assert grid[rebuilt] is grid[config]
    assert {MetricSpec(2): "l2", MetricSpec(): "linf"}[MetricSpec(2.0)] == "l2"
    assert {MetricSpec(2): "l2", MetricSpec(): "linf"}[MetricSpec.infinity()] == "linf"


@pytest.mark.parametrize("case", RECORD_CASES, ids=_case_id)
def test_records_are_named_tuples_whose_replace_and_make_check(case):
    record = case.cls(**case.fields)
    assert tuple(record) == tuple(case.fields.values())
    assert record._asdict() == case.fields
    assert record._replace() == record
    assert case.cls._make(case.fields.values()) == record
    for overrides, field, stored in case.coercions:
        assert getattr(record._replace(**overrides), field) == stored
    for overrides, error, message in case.invalid:
        with pytest.raises(error, match=message):
            record._replace(**overrides)
        with pytest.raises(error, match=message):
            case.cls._make({**case.fields, **overrides}.values())
