"""Property-based checks of the metric family and conversion.

Profile values are drawn from the 0.01 grid in [0, 200], mirroring the
resolution of the real data; exact ties are therefore common and exercise
the tie-sensitive code paths.  The batch kernel is also checked on
differences up to 1.7e308, where norms overflow, and its row peaks (the
L_inf distance and the scale of Ln) against a ``max(*row)`` reference,
both against an all-zero goal, and against a drawn goal on the written-out
|v - g| differences.  Its L2 rests on ``math.dist`` giving the double that
``math.hypot`` gives for the differences in the same order, checked here
too.  The first per-row oracle hands ``math.hypot`` each row in descending
order, the kernel in ascending order of its columns' keys, which the tests
permute with the columns; an L2 failure there is a row on which ``hypot``
depends on the order of its arguments, not a kernel fault: record the row,
and pin it with hypothesis's ``@example``.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpmatch.core import (
    MetricSpec,
    Profile,
    Unit,
    _TINY,
    _norm,
    _norms,
    convert,
    metric_distance,
)
from lpmatch.errors import InvalidValue

METRICS = [MetricSpec.infinity()] + [MetricSpec.ln(n) for n in (1, 2, 3, 4, 5)]


def grid_values(dim):
    cell = st.integers(min_value=0, max_value=20000).map(lambda k: k / 100.0)
    return st.lists(cell, min_size=dim, max_size=dim).map(tuple)


@st.composite
def profile_triples(draw):
    dim = draw(st.integers(min_value=1, max_value=8))
    names = tuple(f"ref{i}" for i in range(dim))
    make = lambda: Profile(names, draw(grid_values(dim)), Unit.KILOMETERS)
    return make(), make(), make()


@st.composite
def profile_pairs(draw):
    x, y, _ = draw(profile_triples())
    return x, y


@given(profile_pairs())
@settings(max_examples=200)
def test_non_negativity_and_symmetry(pair):
    x, y = pair
    for spec in METRICS:
        d_xy = metric_distance(spec, x, y)
        assert d_xy >= 0.0
        assert d_xy == metric_distance(spec, y, x)


@given(profile_pairs())
@settings(max_examples=200)
def test_identity_of_indiscernibles(pair):
    x, y = pair
    for spec in METRICS:
        assert metric_distance(spec, x, x) == 0.0
        if metric_distance(spec, x, y) == 0.0:
            assert x.values == y.values


@given(profile_triples())
@settings(max_examples=300)
def test_triangle_inequality(triple):
    x, y, z = triple
    for spec in METRICS:
        d_xz = metric_distance(spec, x, z)
        d_xy = metric_distance(spec, x, y)
        d_yz = metric_distance(spec, y, z)
        assert d_xz <= d_xy + d_yz + 1e-9 * (d_xy + d_yz + 1.0)


@given(profile_pairs())
@settings(max_examples=200)
def test_monotone_in_the_order_and_above_linf(pair):
    x, y = pair
    d_inf = metric_distance(MetricSpec.infinity(), x, y)
    previous = math.inf
    for n in (1, 2, 3, 4, 5, 8, 16):
        d_n = metric_distance(MetricSpec.ln(n), x, y)
        assert d_n <= previous * (1.0 + 1e-12)
        assert d_n >= d_inf * (1.0 - 1e-12)
        previous = d_n


@given(grid_values(4), grid_values(4))
@settings(max_examples=200)
def test_high_orders_converge_to_linf(xs, ys):
    names = ("a", "b", "c", "d")
    x = Profile(names, xs, Unit.HOURS)
    y = Profile(names, ys, Unit.HOURS)
    d_inf = metric_distance(MetricSpec.infinity(), x, y)
    d_64 = metric_distance(MetricSpec.ln(64), x, y)
    assert abs(d_64 - d_inf) <= 0.05 * d_inf + 1e-12
    # and the gap keeps shrinking as the order grows
    d_256 = metric_distance(MetricSpec.ln(256), x, y)
    assert abs(d_256 - d_inf) <= abs(d_64 - d_inf) + 1e-12


@given(profile_pairs(), st.sampled_from([0.25, 0.5, 2.0, 3.0, 31.0, 1024.0]))
@settings(max_examples=200)
def test_homogeneity_under_scaling(pair, s):
    x, y = pair
    sx = Profile(x.names, tuple(v * s for v in x.values), x.unit)
    sy = Profile(y.names, tuple(v * s for v in y.values), y.unit)
    for spec in METRICS:
        d = metric_distance(spec, x, y)
        d_s = metric_distance(spec, sx, sy)
        assert math.isclose(d_s, s * d, rel_tol=1e-9, abs_tol=1e-12)


@given(profile_pairs(), st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_permutation_invariance_is_exact(pair, rng):
    x, y = pair
    order = list(range(len(x.names)))
    rng.shuffle(order)
    x_shuffled = Profile(tuple(x.names[i] for i in order),
                         tuple(x.values[i] for i in order), x.unit)
    order2 = list(range(len(y.names)))
    rng.shuffle(order2)
    y_shuffled = Profile(tuple(y.names[i] for i in order2),
                         tuple(y.values[i] for i in order2), y.unit)
    for spec in METRICS:
        assert metric_distance(spec, x_shuffled, y_shuffled) == \
            metric_distance(spec, x, y)


@given(grid_values(4))
@settings(max_examples=200)
def test_convert_is_entrywise_linear(values):
    names = ("a", "b", "c", "d")
    p = Profile(names, values, Unit.JORNADAS)
    km = convert(p, Unit.KILOMETERS)
    hours = convert(p, Unit.HOURS)
    assert km.values == tuple(v * 31.0 for v in p.values)
    assert hours.values == tuple(v * 10.0 for v in p.values)
    zero = Profile(p.names, (0.0,) * len(p.values), p.unit)
    assert convert(zero, Unit.KILOMETERS).values == (0.0,) * 4


def oracle_row_norm(order, row):
    """One row's Lp norm, written out over the row sorted descending;
    math.inf when it is not a finite double."""
    diffs = sorted(row, reverse=True)
    if order is None:
        return diffs[0]
    if order == 1:
        try:
            return math.fsum(diffs)
        except OverflowError:
            return math.inf
    if order == 2:
        return math.hypot(*diffs)
    peak = diffs[0]
    if peak == 0.0:
        return 0.0
    return peak * math.fsum((d / peak) ** order for d in diffs) ** (1.0 / order)


@st.composite
def difference_columns(draw):
    n_refs = draw(st.integers(min_value=1, max_value=5))
    n_rows = draw(st.integers(min_value=1, max_value=8))
    value = st.one_of(
        st.just(0.0),
        st.integers(min_value=0, max_value=20000).map(lambda k: k / 100.0),
        st.floats(min_value=0.0, max_value=1.7e308),
    )
    rows = [draw(st.lists(value, min_size=n_refs, max_size=n_refs)) for _ in range(n_rows)]
    if draw(st.booleans()):
        rows[draw(st.integers(min_value=0, max_value=n_rows - 1))] = [0.0] * n_refs
    order = draw(st.permutations(range(n_refs)))
    return rows, [[row[i] for row in rows] for i in order], [f"k{i}" for i in order]


@pytest.mark.parametrize("order", [None, 1, 2, 3, 40, 2**64 + 1],
                         ids=lambda n: MetricSpec(n).token[:8])
@given(difference_columns())
@settings(max_examples=150, deadline=None)
def test_batch_reducer_equals_a_per_row_oracle(order, data):
    """_norms over (permuted) columns equals, under ==, each row's norm from
    the written-out formulas, or raises InvalidValue when one is not finite."""
    rows, columns, keys = data
    expected = [oracle_row_norm(order, row) for row in rows]
    spec = MetricSpec(order)
    zeros = [0.0] * len(keys)  # the rows are already differences
    if math.inf in expected:
        with pytest.raises(InvalidValue, match=f"the {spec.token} distance"):
            _norms(spec, columns, zeros, keys)
    else:
        assert _norms(spec, columns, zeros, keys) == expected
        assert [_norm(spec, row, zeros, sorted(keys)) for row in rows] == expected


DBL_MAX = sys.float_info.max


def max_row_norm(order, row):
    """One row's L_inf or Ln (n >= 3) norm, with the row's peak taken by
    ``max(*row)`` and the rest of the arithmetic as ``_norms`` does it;
    math.inf when it is not a finite double."""
    peak = max(*row) if len(row) > 1 else row[0]
    if order is None:
        return peak
    divisor = max(peak, _TINY)
    return peak * math.fsum((d / divisor) ** float(order) for d in row) ** (1.0 / order)


@st.composite
def peak_columns(draw):
    """Rows drawn from a few values, so that zeros and repeated values are
    common, plus values up to and next to the largest double."""
    n_refs = draw(st.integers(min_value=1, max_value=6))
    n_rows = draw(st.integers(min_value=1, max_value=10))
    value = st.one_of(
        st.sampled_from((0.0, 0.0, 1.0, 2.5, 2.5, 5e-324, DBL_MAX,
                         math.nextafter(DBL_MAX, 0.0), DBL_MAX / 2)),
        st.integers(min_value=0, max_value=20000).map(lambda k: k / 100.0),
        st.floats(min_value=0.0, max_value=DBL_MAX),
    )
    rows = [draw(st.lists(value, min_size=n_refs, max_size=n_refs)) for _ in range(n_rows)]
    order = draw(st.permutations(range(n_refs)))
    return rows, [[row[i] for row in rows] for i in order], [f"k{i}" for i in order]


@pytest.mark.parametrize("order", [None, 3, 40], ids=["linf", "l3", "l40"])
@given(peak_columns())
@settings(max_examples=300, deadline=None)
def test_row_peaks_equal_a_max_reference(order, data):
    """The peaks reduced one column at a time are the doubles that max(*row)
    gives, so every L_inf and Ln result is bit for bit the reference's."""
    rows, columns, keys = data
    expected = [max_row_norm(order, row) for row in rows]
    spec = MetricSpec(order)
    zeros = [0.0] * len(keys)  # the rows are already differences
    if math.inf in expected:
        with pytest.raises(InvalidValue, match=f"the {spec.token} distance"):
            _norms(spec, columns, zeros, keys)
    else:
        assert [x.hex() for x in _norms(spec, columns, zeros, keys)] == [x.hex() for x in expected]


def goal_oracle(order, row, goal):
    """One row's Lp distance to ``goal``, written out over the |v - g|
    differences; ``row`` and ``goal`` are given in ascending key order, the
    order in which L2 hands them to ``hypot``."""
    diffs = [abs(v - g) for v, g in zip(row, goal)]
    return math.hypot(*diffs) if order == 2 else oracle_row_norm(order, diffs)


@st.composite
def value_columns_and_goal(draw):
    """Rows and a goal that is not all zero, both drawn from zeros, repeated
    values and values next to the largest double, with the columns, the
    goal and the keys permuted together."""
    n_refs = draw(st.integers(min_value=1, max_value=6))
    n_rows = draw(st.integers(min_value=1, max_value=10))
    value = st.one_of(
        st.sampled_from((0.0, 0.0, 1.0, 2.5, 2.5, 5e-324, DBL_MAX,
                         math.nextafter(DBL_MAX, 0.0), DBL_MAX / 2)),
        st.integers(min_value=0, max_value=20000).map(lambda k: k / 100.0),
        st.floats(min_value=0.0, max_value=DBL_MAX),
    )
    rows = [draw(st.lists(value, min_size=n_refs, max_size=n_refs)) for _ in range(n_rows)]
    goal = draw(st.lists(value, min_size=n_refs, max_size=n_refs).filter(any))
    order = draw(st.permutations(range(n_refs)))
    return (rows, goal, [[row[i] for row in rows] for i in order], [goal[i] for i in order],
            [f"k{i}" for i in order])


@pytest.mark.parametrize("order", [None, 1, 2, 3, 40, 2**64 + 1],
                         ids=lambda n: MetricSpec(n).token[:8])
@given(value_columns_and_goal())
@settings(max_examples=200, deadline=None)
def test_kernel_equals_a_per_row_oracle_against_a_goal(order, data):
    """_norms and _norm measure each row against the goal bit for bit as the
    written-out formulas on its |v - g| differences do, or raise
    InvalidValue when a distance is not a finite double."""
    rows, goal, columns, permuted_goal, keys = data
    expected = [goal_oracle(order, row, goal) for row in rows]
    spec = MetricSpec(order)
    if math.inf in expected:
        with pytest.raises(InvalidValue, match=f"the {spec.token} distance"):
            _norms(spec, columns, permuted_goal, keys)
    else:
        hexes = [x.hex() for x in expected]
        assert [x.hex() for x in _norms(spec, columns, permuted_goal, keys)] == hexes
        assert [_norm(spec, row, goal, sorted(keys)).hex() for row in rows] == hexes


@st.composite
def point_pairs(draw):
    size = draw(st.integers(min_value=1, max_value=40))
    value = st.one_of(
        st.sampled_from((0.0, 1.0, 2.5, 5e-324, DBL_MAX, math.nextafter(DBL_MAX, 0.0))),
        st.integers(min_value=0, max_value=20000).map(lambda k: k / 100.0),
        st.floats(min_value=0.0, max_value=DBL_MAX),
    )
    coordinates = st.lists(value, min_size=size, max_size=size)
    return draw(coordinates), draw(coordinates)


@given(point_pairs())
@settings(max_examples=300, deadline=None)
def test_dist_is_hypot_of_the_differences(pair):
    """math.dist(p, q) is the double that math.hypot gives for the |a - b|
    differences in the same order, the premise of the kernel's L2."""
    p, q = pair
    assert math.dist(p, q).hex() == math.hypot(*(abs(a - b) for a, b in zip(p, q))).hex()
