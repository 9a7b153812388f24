"""Set-expression algebra: membership semantics, 1-D reduction, JSON."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfp import sets
from gfp.measure import gauss_measure, std_normal_cdf

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def intervals_1d(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    raw = []
    for _ in range(n):
        a = draw(finite)
        b = draw(finite)
        if a > b:
            a, b = b, a
        if a == b:
            b = a + 0.5
        raw.append((a, b))
    raw.sort()
    merged = [raw[0]]
    for a, b in raw[1:]:
        if a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return sets.IntervalUnion(intervals=tuple(merged))


@st.composite
def primitive_1d(draw):
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        return draw(intervals_1d())
    if kind == 1:
        return sets.Ball(center=(draw(finite),),
                         radius=draw(st.floats(min_value=0.1, max_value=5.0)))
    if kind == 2:
        return sets.FullSpace()
    return sets.Empty()


@st.composite
def expr_1d(draw, depth=2):
    if depth == 0:
        return draw(primitive_1d())
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        return draw(primitive_1d())
    if kind == 1:
        return sets.Complement(draw(expr_1d(depth=depth - 1)))
    left = draw(expr_1d(depth=depth - 1))
    right = draw(expr_1d(depth=depth - 1))
    if kind == 2:
        return sets.Union(left, right)
    if kind == 3:
        return sets.Intersection(left, right)
    return sets.Difference(left, right)


points = st.lists(finite, min_size=1, max_size=16).map(
    lambda xs: np.array(xs).reshape(-1, 1))


# ---------------------------------------------------------------------------
# membership semantics
# ---------------------------------------------------------------------------

@given(expr_1d(), expr_1d(), points)
@settings(max_examples=150, deadline=None)
def test_de_morgan(a, b, x):
    lhs = sets.contains(sets.Complement(sets.Union(a, b)), x)
    rhs = sets.contains(
        sets.Intersection(sets.Complement(a), sets.Complement(b)), x)
    np.testing.assert_array_equal(lhs, rhs)


@given(expr_1d(), points)
@settings(max_examples=150, deadline=None)
def test_double_complement(a, x):
    np.testing.assert_array_equal(
        sets.contains(sets.Complement(sets.Complement(a)), x),
        sets.contains(a, x))


@given(expr_1d(), expr_1d(), points)
@settings(max_examples=150, deadline=None)
def test_difference_is_intersection_with_complement(a, b, x):
    np.testing.assert_array_equal(
        sets.contains(sets.Difference(a, b), x),
        sets.contains(sets.Intersection(a, sets.Complement(b)), x))


def test_halfspace_membership():
    h = sets.HalfSpace(normal=(1.0, 0.0), offset=0.5)
    x = np.array([[0.0, 3.0], [0.49, -1.0], [0.51, 0.0]])
    np.testing.assert_array_equal(sets.contains(h, x), [True, True, False])


def test_halfspace_normal_must_be_unit():
    with pytest.raises(ValueError):
        sets.HalfSpace(normal=(2.0, 0.0), offset=0.0)


def test_primitives_given_lists_are_hashable_and_equal_to_tuples():
    # perimeter memoises the measure of its pieces, so sets are hashed
    box = sets.Box(lo=[0.0, -1.0], hi=[1.0, 1.0])
    assert box == sets.Box(lo=(0.0, -1.0), hi=(1.0, 1.0))
    ball, half = sets.Ball([0.0, 0.5], 1.0), sets.HalfSpace([1.0, 0.0], 0.2)
    assert len({box, ball, half, sets.Complement(ball)}) == 4


def test_contains_at_a_single_point():
    e = sets.Ball(center=(0.0, 0.0), radius=1.0)
    assert sets.contains(e, np.array([0.0, 0.0]))
    assert not sets.contains(e, np.array([2.0, 0.0]))


# ---------------------------------------------------------------------------
# exact 1-D interval reduction
# ---------------------------------------------------------------------------

def _boundary_points(expr):
    if isinstance(expr, sets.IntervalUnion):
        return [p for iv in expr.intervals for p in iv]
    if isinstance(expr, sets.Ball):
        c = expr.center[0]
        return [c - expr.radius, c + expr.radius]
    if isinstance(expr, sets.Complement):
        return _boundary_points(expr.inner)
    if isinstance(expr, (sets.Union, sets.Intersection, sets.Difference)):
        return _boundary_points(expr.left) + _boundary_points(expr.right)
    return []


@given(expr_1d(), st.lists(finite, min_size=1, max_size=32))
@settings(max_examples=150, deadline=None)
def test_to_intervals_agrees_with_membership(a, xs):
    ivs = sets.to_intervals(a)
    # open/closed boundaries are measure-zero: drop points on any boundary
    # of the expression tree, where closed-set semantics need not survive
    # complement/merge simplifications
    edges = np.array(_boundary_points(a) + [p for iv in ivs for p in iv])
    x = np.array([v for v in xs
                  if edges.size == 0 or np.min(np.abs(edges - v)) > 1e-9])
    if x.size == 0:
        return
    member = sets.contains(a, x.reshape(-1, 1))
    in_ivs = np.zeros(x.size, dtype=bool)
    for lo, hi in ivs:
        in_ivs |= (x >= lo) & (x <= hi)
    np.testing.assert_array_equal(member, in_ivs)


def test_to_intervals_merges_overlaps():
    e = sets.Union(sets.IntervalUnion(intervals=((0.0, 2.0),)),
                   sets.IntervalUnion(intervals=((1.0, 3.0),)))
    assert sets.to_intervals(e) == [(0.0, 3.0)]


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("offset", [-1.5, -0.7, 0.0, 0.3, 2.0])
def test_to_intervals_of_halfspace_matches_contains(sign, offset):
    # {x : sign * x <= offset}: (-inf, offset] for sign +1, [-offset, inf)
    # for sign -1
    h = sets.HalfSpace(normal=(sign,), offset=offset)
    ivs = sets.to_intervals(h)
    x = np.linspace(-4.0, 4.0, 801)
    x = x[np.abs(np.abs(x) - abs(offset)) > 1e-9]
    in_ivs = np.zeros(x.size, dtype=bool)
    for lo, hi in ivs:
        in_ivs |= (x > lo) & (x < hi)
    np.testing.assert_array_equal(sets.contains(h, x.reshape(-1, 1)), in_ivs)
    # n . X is standard normal for a unit normal n, whatever its sign
    assert gauss_measure(h, dim=1).value == pytest.approx(
        std_normal_cdf(offset), abs=1e-15)


def test_to_intervals_complement_of_halfline():
    e = sets.Complement(sets.IntervalUnion(intervals=((0.0, math.inf),)))
    assert sets.to_intervals(e) == [(-math.inf, 0.0)]


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

@given(expr_1d())
@settings(max_examples=100, deadline=None)
def test_json_roundtrip_semantics(a):
    text = sets.set_to_json(a, 1)
    back, dim = sets.set_from_json(text)
    assert dim == 1
    x = np.linspace(-8, 8, 65).reshape(-1, 1)
    np.testing.assert_array_equal(sets.contains(back, x), sets.contains(a, x))


def test_json_schema_shapes():
    doc = json.loads(sets.set_to_json(
        sets.HalfSpace(normal=(0.0, 1.0), offset=0.25), 2))
    assert doc["dim"] == 2
    assert "halfspace" in doc["set"]
    expr, dim = sets.set_from_json(json.dumps(
        {"dim": 1, "set": {"not": {"ball": {"center": [0.0], "r": 1.0}}}}))
    assert dim == 1
    assert isinstance(expr, sets.Complement)


@pytest.mark.parametrize("expr", [
    sets.Box(lo=(-1.0, 0.5), hi=(2.0, 3.0)),
    sets.HalfSpace(normal=(0.6, -0.8), offset=-0.3),
    sets.Ball(center=(0.7, -0.4), radius=1.25),
])
def test_json_roundtrip_of_2d_leaves(expr):
    back, dim = sets.set_from_json(sets.set_to_json(expr, 2))
    assert (back, dim) == (expr, 2)
    x = np.random.default_rng(3).normal(scale=2.0, size=(200, 2))
    np.testing.assert_array_equal(sets.contains(back, x),
                                  sets.contains(expr, x))


def test_json_rejects_malformed():
    with pytest.raises((ValueError, KeyError)):
        sets.set_from_json('{"dim": 1, "set": {"wedge": 3}}')
