"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run pytest with -s to see the PASS
lines; FAIL lines surface in captured output automatically).

Tolerances: ranking distances +-0.01 (golden values carry two decimals),
relative errors and gaps +-0.02, metric homogeneity 1e-9 relative; the
randomized batteries are seeded and deterministic.
"""

import math
import random
import time

from test_analysis_properties import oracle_ranking, random_table_and_target

from lpmatch.analysis import (
    CLASSIC_SOLUTION,
    REFINED_SOLUTION,
    rank_candidates,
    target_profile,
)
from lpmatch.paper import run_builtin_grid, summarize_conclusions
from lpmatch.core import MetricSpec, Profile, Unit, convert, metric_distance
from lpmatch.dataset import DistanceTable
from lpmatch.report import format_2dp

from golden_values import EXPECTED_ERRORS, EXPECTED_GAPS, EXPECTED_TOP5

METRIC_BY_TOKEN = {
    "linf": MetricSpec.infinity(),
    "l1": MetricSpec.ln(1),
    "l2": MetricSpec.ln(2),
}


def _report(label, checker):
    try:
        checker()
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_criterion_1_ranking_tables_and_runtime():
    def check():
        started = time.perf_counter()
        results = run_builtin_grid()
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"grid took {elapsed:.3f}s"
        by_key = {config.key: result for config, result in results.items()}
        assert len(by_key) == 24
        for key, expected in EXPECTED_TOP5.items():
            ranking = by_key[key].ranking[:5]
            got_names = [entry.candidate for entry in ranking]
            assert got_names == [name for name, _ in expected], key
            for entry, (_, distance) in zip(ranking, expected):
                assert abs(entry.distance - distance) <= 0.01, (key, entry)

    _report("criterion 1: 24 ranking configurations reproduce, grid < 1 s", check)


def test_criterion_2_relative_error_rows():
    def check():
        by_key = {config.key: result for config, result in run_builtin_grid().items()}
        for key, expected in EXPECTED_ERRORS.items():
            result = by_key[key]
            for position, (name, percent) in enumerate(expected):
                entry = result.ranking[position]
                error = result.errors[position]
                assert entry.candidate == name, (key, position, entry.candidate)
                assert abs(error - percent) <= 0.02, (key, position, error)

    _report("criterion 2: 24 relative-error rows reproduce within +-0.02", check)


def test_criterion_3_gap_families():
    def check():
        by_key = {config.key: result for config, result in run_builtin_grid().items()}
        for (solution, unit, nrefs), expected in EXPECTED_GAPS.items():
            gaps = by_key[(solution, unit, nrefs, "l1")].gaps
            by_metric = {record.metric.token: record.gap for record in gaps.records}
            for token in ("linf", "l1", "l2"):
                assert abs(by_metric[token] - expected[token]) <= 0.02, (solution, unit, nrefs, token)
            assert abs(gaps.mean_gap - expected["mean"]) <= 0.02, (solution, unit, nrefs)

    _report("criterion 3: 8 gap families reproduce within +-0.02", check)


def test_criterion_4_conclusion_assertions():
    def check():
        results = run_builtin_grid()
        summary = summarize_conclusions(results)
        tops = {config.key: name for config, name in summary.top_candidates}

        # (a) the refined target elects Villanueva de los Infantes everywhere
        refined = [name for key, name in tops.items() if key[0] == "refined"]
        assert len(refined) == 12
        assert all(name == "Villanueva de los Infantes" for name in refined)

        # (b) the classic target without Munera elects Carrizosa everywhere
        classic3 = [name for key, name in tops.items() if key[0] == "classic" and key[2] == 3]
        assert len(classic3) == 6
        assert all(name == "Carrizosa" for name in classic3)

        # (c) the classic target with Munera under L_inf elects Alcubillas in both units
        assert tops[("classic", "km", 4, "linf")] == "Alcubillas"
        assert tops[("classic", "hours", 4, "linf")] == "Alcubillas"

        # (d) km and hours agree on every top-5 name set
        by_pair = {}
        for config, result in results.items():
            solution, unit, nrefs, metric = config.key
            names = frozenset(e.candidate for e in result.ranking[:5])
            by_pair.setdefault((solution, nrefs, metric), {})[unit] = names
        assert len(by_pair) == 12
        for pair, per_unit in by_pair.items():
            assert per_unit["km"] == per_unit["hours"], pair

        # (e) the two largest mean gaps are the refined/no-Munera families and
        # the two smallest the refined/with-Munera families
        ordered = sorted(summary.families, key=lambda f: f.mean_gap)
        top_two = {(f.solution, len(f.references)) for f in ordered[-2:]}
        bottom_two = {(f.solution, len(f.references)) for f in ordered[:2]}
        assert top_two == {("refined", 3)}
        assert bottom_two == {("refined", 4)}

    _report("criterion 4: conclusion assertions (a)-(e) hold", check)


def _random_profile(rng, names, unit=Unit.KILOMETERS):
    return Profile(names, tuple(rng.randrange(0, 20001) / 100.0 for _ in names), unit)


def test_criterion_5_metric_property_battery():
    def check():
        rng = random.Random(20240915)
        metrics = [MetricSpec.infinity()] + [MetricSpec.ln(n) for n in (1, 2, 3, 4, 5)]
        scales = (0.5, 2.0, 31.0, 1024.0)
        cases = 0
        for _ in range(1000):
            dim = rng.randrange(1, 9)
            names = tuple(f"ref{i}" for i in range(dim))
            x, y, z = (_random_profile(rng, names) for _ in range(3))
            per_metric = {}
            for spec in metrics:
                d_xy = metric_distance(spec, x, y)
                per_metric[spec] = d_xy
                assert d_xy >= 0.0
                assert metric_distance(spec, y, x) == d_xy
                assert metric_distance(spec, x, x) == 0.0
                if d_xy == 0.0:
                    assert x.values == y.values
                d_xz = metric_distance(spec, x, z)
                d_yz = metric_distance(spec, y, z)
                assert d_xz <= d_xy + d_yz + 1e-9 * (d_xy + d_yz + 1.0)
            d_inf = per_metric[metrics[0]]
            for lower, higher in zip(metrics[1:], metrics[2:]):
                assert per_metric[lower] >= per_metric[higher] * (1.0 - 1e-12)
            assert per_metric[metrics[-1]] >= d_inf * (1.0 - 1e-12)
            s = scales[cases % len(scales)]
            sx = Profile(names, tuple(v * s for v in x.values), x.unit)
            sy = Profile(names, tuple(v * s for v in y.values), y.unit)
            for spec in metrics:
                assert math.isclose(
                    metric_distance(spec, sx, sy), s * per_metric[spec],
                    rel_tol=1e-9, abs_tol=1e-12,
                )
            cases += 1
        assert cases >= 1000

        # ranking invariance under positive scaling and reference permutation
        for _ in range(100):
            table, target = random_table_and_target(rng)
            baseline = {
                spec: [e.candidate for e in rank_candidates(table, target, spec)]
                for spec in metrics[:4]
            }
            s = scales[rng.randrange(len(scales))]
            scaled = DistanceTable(
                table.unit,
                table.references,
                [(n, tuple(v * s for v in table.row_values(n))) for n in table.candidates],
            )
            starget = Profile(target.names, tuple(v * s for v in target.values), target.unit)
            order = list(range(len(table.references)))
            rng.shuffle(order)
            permuted = DistanceTable(
                table.unit,
                tuple(table.references[i] for i in order),
                [(n, tuple(table.row_values(n)[i] for i in order)) for n in table.candidates],
            )
            for spec, names in baseline.items():
                assert [e.candidate for e in rank_candidates(scaled, starget, spec)] == names
                assert [e.candidate for e in rank_candidates(permuted, target, spec)] == names

    _report("criterion 5: >=1000 randomized metric/ranking property cases", check)


def test_criterion_6_brute_force_oracle_equivalence():
    def check():
        rng = random.Random(631)
        metrics = (MetricSpec.infinity(), MetricSpec.ln(1), MetricSpec.ln(2), MetricSpec.ln(3))
        for index in range(200):
            table, target = random_table_and_target(rng, max_candidates=6, max_references=4)
            metric = metrics[index % len(metrics)]
            expected = oracle_ranking(table, target, metric)
            actual = [e.candidate for e in rank_candidates(table, target, metric)]
            assert actual == expected, index

    _report("criterion 6: 200 random tables match the brute-force oracle", check)


def test_criterion_7_conversion_checks():
    def check():
        expectations = (
            (CLASSIC_SOLUTION, Unit.KILOMETERS, ("62.00", "73.47", "77.50", "62.00")),
            (CLASSIC_SOLUTION, Unit.HOURS, ("20.00", "23.70", "25.00", "20.00")),
            (REFINED_SOLUTION, Unit.KILOMETERS, ("62.00", "75.02", "86.80", "69.13")),
            (REFINED_SOLUTION, Unit.HOURS, ("20.00", "24.20", "28.00", "22.30")),
        )
        for solution, unit, displayed in expectations:
            converted = convert(solution.jornadas, unit)
            assert converted.unit is unit
            got = tuple(format_2dp(v) for v in converted.values)
            assert got == displayed, (solution.label, unit, got)
            for value, text in zip(converted.values, displayed):
                assert abs(value - float(text)) <= 0.005
            # the analysis-facing path agrees
            assert target_profile(solution, unit).values == converted.values

    _report("criterion 7: solution conversions exact at two decimals", check)
