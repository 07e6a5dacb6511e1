"""Property-based checks of the ranking machinery.

The brute-force oracle re-computes every distance with inline formulas and
re-sorts from scratch; it shares no code with the implementation under test.
The oracle hands each row's differences to ``math.hypot`` in descending
order, the implementation in ascending order of the references' folded
keys, so the L2 checks also show that both orders give the same doubles.
An L2 failure here is a row on which ``math.hypot`` depends on the order of
its arguments, not a ranking fault: record the row, and pin it with
hypothesis's ``@example`` so that every run checks it again.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpmatch.analysis import (
    STANDARD_METRICS,
    GapRecord,
    GapReport,
    RankingEntry,
    _rank_family,
    gap_report,
    rank_candidates,
    relative_error_percent,
)
from lpmatch.core import MetricSpec, Profile, Unit, metric_distance
from lpmatch.dataset import DistanceTable, parse_table, subset_references

METRICS = (MetricSpec.infinity(), MetricSpec.ln(1), MetricSpec.ln(2), MetricSpec.ln(3))


def row_profile(table, name):
    """The profile of one candidate's row of ``table``."""
    return Profile(table.references, table.row_values(name), table.unit)


def oracle_distance(metric, row_values, target_values):
    diffs = sorted((abs(a - b) for a, b in zip(row_values, target_values)), reverse=True)
    if metric.order is None:
        return diffs[0]
    n = metric.order
    if n == 1:
        return math.fsum(diffs)
    if n == 2:
        return math.hypot(*diffs)
    peak = diffs[0]
    if peak == 0.0:
        return 0.0
    return peak * math.fsum((d / peak) ** n for d in diffs) ** (1.0 / n)


def oracle_ranking(table, target, metric):
    """Exhaustive recomputation plus stable sort, aligned positionally."""
    order = [target.names.index(r) for r in table.references]
    target_values = [target.values[i] for i in order]
    scored = []
    for name in table.candidates:
        values = table.row_values(name)
        scored.append((
            oracle_distance(metric, values, target_values),
            oracle_distance(MetricSpec.ln(2), values, target_values),
            name,
        ))
    return [name for _, _, name in sorted(scored)]


def grid_value(rng):
    return rng.randrange(1, 20001) / 100.0


def random_table_and_target(rng, max_candidates=6, max_references=4):
    n_refs = rng.randrange(1, max_references + 1)
    n_rows = rng.randrange(1, max_candidates + 1)
    refs = tuple(f"ref{i}" for i in range(n_refs))
    rows = [
        (f"cand{i}", tuple(grid_value(rng) for _ in refs))
        for i in range(n_rows)
    ]
    table = DistanceTable(Unit.KILOMETERS, refs, rows)
    target = Profile(table.references, tuple(grid_value(rng) for _ in refs), Unit.KILOMETERS)
    return table, target


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.token)
def test_matches_brute_force_oracle_on_random_tables(metric):
    rng = random.Random(415)
    for _ in range(100):
        table, target = random_table_and_target(rng)
        expected = oracle_ranking(table, target, metric)
        actual = [e.candidate for e in rank_candidates(table, target, metric)]
        assert actual == expected


@pytest.mark.parametrize("scale", [0.5, 2.0, 31.0, 1024.0])
def test_ranking_order_invariant_under_positive_scaling(scale):
    rng = random.Random(97)
    for _ in range(50):
        table, target = random_table_and_target(rng)
        scaled_table = DistanceTable(
            table.unit,
            table.references,
            [(n, tuple(v * scale for v in table.row_values(n))) for n in table.candidates],
        )
        scaled_target = Profile(
            target.names, tuple(v * scale for v in target.values), target.unit
        )
        for metric in METRICS:
            before = [e.candidate for e in rank_candidates(table, target, metric)]
            after = [e.candidate for e in rank_candidates(scaled_table, scaled_target, metric)]
            assert after == before


def test_ranking_invariant_under_reference_permutation():
    rng = random.Random(7)
    for _ in range(50):
        table, target = random_table_and_target(rng)
        order = list(range(len(table.references)))
        rng.shuffle(order)
        permuted = DistanceTable(
            table.unit,
            tuple(table.references[i] for i in order),
            [
                (n, tuple(table.row_values(n)[i] for i in order))
                for n in table.candidates
            ],
        )
        for metric in METRICS:
            assert rank_candidates(permuted, target, metric) == \
                rank_candidates(table, target, metric)


def test_dominated_candidates_never_rank_better():
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        table, target = random_table_and_target(rng, max_candidates=6, max_references=3)
        if len(table) < 2:
            continue
        diffs = {
            name: [abs(a - b) for a, b in zip(table.row_values(name), target.values)]
            for name in table.candidates
        }
        for a in table.candidates:
            for b in table.candidates:
                if a == b or not all(x <= y for x, y in zip(diffs[a], diffs[b])):
                    continue
                checked += 1
                for metric in METRICS:
                    ranking = rank_candidates(table, target, metric)
                    position = {e.candidate: e.rank for e in ranking}
                    distance = {e.candidate: e.distance for e in ranking}
                    assert distance[a] <= distance[b] + 1e-12
                    if all(x < y for x, y in zip(diffs[a], diffs[b])):
                        assert position[a] < position[b]


# Reference names with case, spacing and diacritics to re-spell.
BASE_REFERENCES = ("Peña Alta", "Río Frío", "Cañada Real", "Álamo", "Ermita de San Blas")


def respellings(name):
    plain = name.replace("ñ", "n").replace("í", "i").replace("Á", "A")
    return st.sampled_from((name, name.upper(), plain.lower(),
                            "  " + name.replace(" ", "   ") + " "))


@st.composite
def permuted_tables_and_targets(draw):
    n_refs = draw(st.integers(min_value=1, max_value=len(BASE_REFERENCES)))
    refs = BASE_REFERENCES[:n_refs]
    value = st.one_of(
        st.integers(min_value=1, max_value=20000).map(lambda k: k / 100.0),
        st.floats(min_value=0.01, max_value=1e300),
    )
    row_values = st.lists(value, min_size=n_refs, max_size=n_refs).map(tuple)
    rows = draw(st.lists(row_values, min_size=1, max_size=8))
    if draw(st.booleans()):
        rows += rows[:2]  # repeated rows tie exactly and fall to the name
    table = DistanceTable(Unit.KILOMETERS, refs,
                          [(f"cand{i}", values) for i, values in enumerate(rows)])
    order = draw(st.permutations(range(n_refs)))
    names = tuple(draw(respellings(refs[i])) for i in order)
    values = draw(st.lists(value, min_size=n_refs, max_size=n_refs))
    return table, Profile(names, tuple(values), Unit.KILOMETERS)


@pytest.mark.parametrize(
    "metric",
    METRICS + (MetricSpec.ln(40), MetricSpec.ln(2**64 + 1), MetricSpec.ln(10**400)),
    ids=lambda m: m.token[:8],
)
@given(data=permuted_tables_and_targets())
@settings(max_examples=60, deadline=None)
def test_matches_per_pair_metric_distance_under_permutation_and_respelling(metric, data):
    """The align-once ranking equals, under ==, one built from per-pair
    metric_distance calls, which align every row by name."""
    table, target = data
    scored = sorted(
        (metric_distance(metric, row_profile(table, name), target),
         metric_distance(MetricSpec.ln(2), row_profile(table, name), target), name)
        for name in table.candidates
    )
    expected = [RankingEntry(name, dist, pos + 1) for pos, (dist, _, name) in enumerate(scored)]
    assert rank_candidates(table, target, metric) == expected


# A few small integer or 2-decimal values, so that exact distance ties, and
# ties of the L2 tie-break too, are common.
PALETTES = ((1.0, 2.0, 3.0, 5.0), (0.01, 0.02, 0.05, 0.07), (1.25, 2.5, 3.75), (4.0, 4.5))


@st.composite
def tie_heavy_tables_and_targets(draw):
    n_refs = draw(st.integers(min_value=1, max_value=4))
    refs = BASE_REFERENCES[:n_refs]
    value = st.sampled_from(draw(st.sampled_from(PALETTES)))
    rows = draw(st.lists(st.lists(value, min_size=n_refs, max_size=n_refs).map(tuple),
                         min_size=2, max_size=14))
    names = draw(st.permutations([f"cand{i:02d}" for i in range(len(rows))]))
    table = DistanceTable(Unit.KILOMETERS, refs, list(zip(names, rows)))
    order = draw(st.permutations(range(n_refs)))
    target_names = tuple(draw(respellings(refs[i])) for i in order)
    target_values = draw(st.lists(value, min_size=n_refs, max_size=n_refs))
    return table, Profile(target_names, tuple(target_values), Unit.KILOMETERS)


@pytest.mark.parametrize(
    "metric", METRICS + (MetricSpec.ln(40),), ids=lambda m: m.token,
)
@given(data=tie_heavy_tables_and_targets())
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_tie_heavy_rankings_match_the_sorted_triple_oracle(metric, data):
    """Ties in the distance, and in its L2 tie-break, fall to (L2, name)."""
    table, target = data
    l2 = MetricSpec.ln(2)
    scored = sorted(
        (metric_distance(metric, row_profile(table, name), target),
         metric_distance(l2, row_profile(table, name), target), name)
        for name in table.candidates
    )
    expected = [RankingEntry(name, dist, pos + 1) for pos, (dist, _, name) in enumerate(scored)]
    assert rank_candidates(table, target, metric) == expected


@given(data=tie_heavy_tables_and_targets())
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_every_ranking_numbers_its_entries_1_to_n(data):
    """The ranks, taken from the table's row ordinals, are 1..n in order,
    in one-metric rankings and in a family's shared pass alike."""
    table, target = data
    metrics = METRICS + (MetricSpec.ln(40),)
    family = _rank_family(table, target, metrics)[0]
    for metric in metrics:
        for ranking in (rank_candidates(table, target, metric), family[metric]):
            assert [e.rank for e in ranking] == list(range(1, len(table) + 1))


@given(data=tie_heavy_tables_and_targets(), keep=st.data())
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_a_subset_ranks_as_a_freshly_parsed_table_with_its_columns(data, keep):
    """A subset shares its parent's row ordinals; its rankings, ranks 1..n
    included, are those of a table parsed from just the kept columns."""
    table, target = data
    kept = keep.draw(st.lists(st.sampled_from(table.references), min_size=1, unique=True))
    columns = [i for i, ref in enumerate(table.references) if ref in kept]
    lines = [",".join(["name", *(table.references[i] for i in columns)])]
    for name, values in zip(table.candidates, table.value_rows):
        lines.append(",".join([name, *(repr(values[i]) for i in columns)]))
    fresh = parse_table("\n".join(lines) + "\n", unit=table.unit)
    sub = subset_references(table, kept)
    goal = target.select(kept)
    for metric in METRICS + (MetricSpec.ln(40),):
        ranking = rank_candidates(sub, goal, metric)
        assert [e.rank for e in ranking] == list(range(1, len(table) + 1))
        assert [(e.candidate, e.distance.hex(), e.rank) for e in ranking] == \
            [(e.candidate, e.distance.hex(), e.rank)
             for e in rank_candidates(fresh, goal, metric)]


@given(data=tie_heavy_tables_and_targets())
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_gap_report_equals_three_separate_rankings(data):
    """The family pass that shares differences and L2 across the metrics
    reports what three one-metric rankings give."""
    table, target = data
    records = []
    for metric in STANDARD_METRICS:
        first, second = rank_candidates(table, target, metric)[:2]
        errors = [relative_error_percent(e.distance, target, metric) for e in (first, second)]
        records.append(GapRecord(metric, first.candidate, errors[0],
                                 second.candidate, errors[1], errors[1] - errors[0]))
    expected = GapReport(tuple(records), math.fsum(r.gap for r in records) / 3)
    assert gap_report(table, target) == expected


@given(st.lists(st.integers(min_value=0, max_value=20000).map(lambda k: k / 100.0),
                min_size=2, max_size=6, unique=True))
@settings(max_examples=100)
def test_relative_error_strictly_monotone_in_distance(distances):
    target = Profile(("a", "b"), (10.0, 20.0), Unit.HOURS)
    for metric in METRICS:
        errors = [relative_error_percent(d, target, metric) for d in sorted(distances)]
        assert all(x < y for x, y in zip(errors, errors[1:]))
