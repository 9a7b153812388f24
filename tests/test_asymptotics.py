"""Limit functional, extrapolation sweep and the set-function properties."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfp import sets
from gfp.asymptotics import (
    _fit_small_s,
    additivity_defect,
    beta_sequence,
    check_subadditivity,
    divergent_example,
    interaction_lower_bound,
    mu_limit,
    non_monotonicity_witness,
    sweep,
    sweep_row_lower_bound,
)
from gfp.errors import OverlapError
from gfp.interaction import interaction, perimeter
from gfp.measure import gauss_measure, std_normal_cdf

HALF = sets.IntervalUnion(intervals=((0.0, math.inf),))
WINDOW = sets.IntervalUnion(intervals=((-1.0, 1.0),))
SWEEP_S = (0.5, 0.125, 0.03125, 0.0078125)   # the benchmark's sweep grid


# ---------------------------------------------------------------------------
# closed-form limit
# ---------------------------------------------------------------------------

def test_mu_halfspace_full_window():
    lv = mu_limit(HALF)
    assert lv.method == "closed-form"
    assert lv.mu == pytest.approx(0.5, abs=1e-15)
    assert lv.error == 0.0


def test_mu_bounded_window_closed_form():
    p = std_normal_cdf(1.0)
    expect = 2.0 * (0.5 * (p - 0.5) + (p - 0.5) * (1.0 - p))
    lv = mu_limit(HALF, WINDOW)
    assert lv.mu == pytest.approx(expect, rel=1e-14)
    assert expect == pytest.approx(0.44966, abs=5e-5)


def test_mu_trivial_sets():
    assert mu_limit(sets.Empty(), WINDOW, dim=1).mu == 0.0
    assert mu_limit(sets.FullSpace(), WINDOW, dim=1).mu == 0.0


@given(st.floats(min_value=-2, max_value=2),
       st.floats(min_value=0.2, max_value=2))
@settings(max_examples=40, deadline=None)
def test_mu_complement_symmetry(center, half):
    e = sets.IntervalUnion(intervals=((center - half, center + half),))
    a = mu_limit(e, WINDOW).mu
    b = mu_limit(sets.complement(e), WINDOW).mu
    assert a == pytest.approx(b, rel=1e-12)


def test_mu_range():
    # mu = 2[p q + r t] with p+q <= 1, r+t <= 1: bounded by 1
    for p in np.linspace(-3, 3, 13):
        e = sets.IntervalUnion(intervals=((p, math.inf),))
        assert 0.0 <= mu_limit(e, WINDOW).mu <= 1.0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_requires_four_rows():
    with pytest.raises(ValueError):
        sweep(HALF, s_list=[0.5, 0.25, 0.125])


def test_sweep_trivial_set_is_flat_zero():
    res = sweep(sets.Empty(), s_list=[0.5, 0.25, 0.125, 0.0625], dim=1)
    assert np.all(res.values == 0.0)
    assert res.extrapolated_limit == pytest.approx(0.0, abs=1e-12)


def test_sweep_rows_strictly_decreasing_s():
    res = sweep(sets.Empty(), s_list=[0.125, 0.5, 0.25, 0.0625], dim=1)
    assert np.all(np.diff(res.s_values) < 0)


def test_fit_recovers_the_limit_from_exact_rows():
    # s P_s = mu + m_0 s + O(s^2) has no s ln s term: on exact half-line
    # rows (mu = 1/2) over four octaves of s the quadratic fit is within
    # 7e-4 of the limit, and the fit residual covers that
    from test_interaction import _halfline_s_perimeter_mp

    s = np.array(SWEEP_S)
    rows = np.array([_halfline_s_perimeter_mp(x) for x in s])
    coeffs, resid = _fit_small_s(s, rows)
    assert coeffs[0] == pytest.approx(0.5, rel=1.5e-3)
    assert abs(coeffs[0] - 0.5) <= resid


def test_sweep_rows_cover_mpmath_references():
    # sweep-1d's rows for the half-line [0.3, inf) over R, each within
    # its bar of an mpmath Owen-T integral computed here
    from test_interaction import _far_halfline_perimeter_mp

    c = 0.3
    e = sets.IntervalUnion(intervals=((c, math.inf),))
    res = sweep(e, sets.FullSpace(), SWEEP_S, dim=1)
    for s, value, error in zip(res.s_values, res.values, res.errors):
        ref = s * _far_halfline_perimeter_mp(c, s)
        assert abs(value - ref) <= error, (s, value, ref, error)


def test_sweep_rows_equal_single_rows_and_their_budget():
    # one kernel pass for every s must give each row's single-s
    # perimeter, value and error bar
    e = sets.complement(sets.IntervalUnion(intervals=((-0.5, 0.5),)))
    omega = sets.IntervalUnion(intervals=((0.0, 2.0),))
    res = sweep(e, omega, SWEEP_S, dim=1)
    for s, value, error in zip(res.s_values, res.values, res.errors):
        row = perimeter(e, omega, s, dim=1).total
        assert value == pytest.approx(s * row.value, rel=1e-13)
        assert error == pytest.approx(s * row.error, rel=1e-6)


def test_windowed_2d_sweep_draws_once_and_equals_its_rows(monkeypatch):
    # the Monte Carlo route draws each piece's operands once for every s:
    # 4 restricted draws for 4 rows, and each row is the single-s
    # perimeter bit for bit
    from test_interaction import (WINDOW_BOX, WINDOWED_DISC,
                                  count_restricted_draws)

    s_list = [0.6, 0.45, 0.3, 0.15]
    restricted = count_restricted_draws(monkeypatch)
    res = sweep(WINDOWED_DISC, WINDOW_BOX, s_list, seed=5, dim=2)
    assert len(restricted) == 4
    for s, value, error, method in zip(res.s_values, res.values, res.errors,
                                       res.methods):
        row = perimeter(WINDOWED_DISC, WINDOW_BOX, s, seed=5, dim=2).total
        assert (value, error, method) == (s * row.value, s * row.error,
                                          row.method)


def test_halfplane_sweep_equals_the_halfline_sweep():
    # over R^2 a half-plane and its complement take the 1-D rule along
    # the normal, every s in one pass
    c, s_list = 0.3, [0.6, 0.45, 0.3, 0.15]
    plane = sweep(sets.HalfSpace((0.6, -0.8), c), sets.FullSpace(), s_list,
                  dim=2)
    line = sweep(sets.HalfSpace((1.0,), c), sets.FullSpace(), s_list, dim=1)
    assert plane.methods == line.methods
    np.testing.assert_allclose(plane.values, line.values, rtol=1e-12, atol=0)
    np.testing.assert_allclose(plane.errors, line.errors, rtol=1e-12, atol=0)


def test_sweep_serialization_roundtrip():
    res = sweep(sets.Empty(), s_list=[0.5, 0.25, 0.125, 0.0625], dim=1)
    doc = json.loads(res.to_json())
    rows = doc["rows"]
    assert [r["s"] for r in rows] == list(res.s_values)
    assert [r["value"] for r in rows] == list(res.values)
    assert [r["error"] for r in rows] == list(res.errors)
    assert [r["method"] for r in rows] == list(res.methods)
    assert doc["extrapolated_limit"] == res.extrapolated_limit
    assert doc["uncertainty"] == res.uncertainty
    assert [doc["fit"][k] for k in "abc"] == list(res.fit_coefficients)
    assert doc["fit"]["residual"] == res.fit_residual
    csv = res.to_csv()
    assert csv.splitlines()[0] == "s,value,error,method"
    assert len(csv.splitlines()) == 5


# ---------------------------------------------------------------------------
# non-additivity and subadditivity
# ---------------------------------------------------------------------------

def test_additivity_defect_closed_form():
    a = sets.IntervalUnion(intervals=((0.0, 1.0),))
    b = sets.IntervalUnion(intervals=((2.0, 3.0),))
    defect, err = additivity_defect(a, b)
    expect = -4.0 * gauss_measure(a).value * gauss_measure(b).value
    assert err == 0.0
    assert defect == pytest.approx(expect, abs=1e-14)


def test_additivity_defect_rejects_overlap():
    a = sets.IntervalUnion(intervals=((0.0, 1.0),))
    b = sets.IntervalUnion(intervals=((0.5, 2.0),))
    with pytest.raises(OverlapError):
        additivity_defect(a, b)


def test_additivity_defect_rejects_a_tiny_2d_overlap():
    # a disc that reaches 2.43e-4 across the line x1 = 0: an overlap of
    # Gaussian mass ~1e-6, below what 1e6 random draws can resolve
    a = sets.HalfSpace((1.0, 0.0), 0.0)
    b = sets.Ball(center=(1.0, 0.5), radius=1.0 + 2.43e-4)
    overlap = gauss_measure(sets.Intersection(a, b), dim=2)
    assert 5e-7 < overlap.value < 2e-6 and overlap.error < 1e-13
    with pytest.raises(OverlapError):
        additivity_defect(a, b, dim=2)
    # the touching disc is disjoint: its overlap is exactly 0
    additivity_defect(a, sets.Ball(center=(1.0, 0.5), radius=1.0), dim=2)


def test_lemma_lower_bound_on_interactions():
    # s L_s(A, B) >= 2 exp(-2 R^2/(e^2-1)) g(A & B_R) g(B & B_R),
    # uniformly in s
    a = sets.IntervalUnion(intervals=((0.0, 1.0),))
    b = sets.IntervalUnion(intervals=((2.0, 3.0),))
    floor = interaction_lower_bound(a, b)
    assert floor > 0
    for s in (0.5, 0.1, 0.01):
        est = interaction(a, b, s)
        assert s * est.value >= floor - s * est.error


def test_subadditivity_random_interval_pairs():
    rng = np.random.default_rng(0)
    for _ in range(30):
        lo1 = rng.uniform(-2, 1)
        a = sets.IntervalUnion(intervals=((lo1, lo1 + rng.uniform(0.1, 1)),))
        lo2 = rng.uniform(-2, 1)
        b = sets.IntervalUnion(intervals=((lo2, lo2 + rng.uniform(0.1, 1)),))
        rep = check_subadditivity(a, b, WINDOW)
        assert rep.holds


def test_subadditivity_self_union():
    rep = check_subadditivity(HALF, HALF, WINDOW)
    assert rep.holds
    assert rep.slack == pytest.approx(rep.mu_a, rel=1e-12)


def test_non_monotonicity_witness():
    mu_small, mu_full = non_monotonicity_witness()
    assert mu_small > 0.0
    assert mu_full == 0.0


# ---------------------------------------------------------------------------
# liminf-shaped row bound
# ---------------------------------------------------------------------------

def test_sweep_rows_respect_liminf_floor():
    for s in (0.5, 0.125):
        row = s * interaction(HALF, sets.complement(HALF), s).value
        assert row >= sweep_row_lower_bound(HALF, sets.FullSpace(), s)


# ---------------------------------------------------------------------------
# divergent construction
# ---------------------------------------------------------------------------

def test_beta_series_converges_cauchy():
    beta = beta_sequence(10 ** 6)
    # monotone Cauchy check: the last decade of terms moves the sum by
    # less than 1e-3 (the true remainder past 10^6 is ~1/log(10^6))
    assert float(beta[900_000:].sum()) < 1e-3 * 10  # sanity on magnitude
    assert float(beta[900_000:].sum()) < float(beta.sum())
    increments = np.add.reduceat(beta, [0, 10 ** 5, 10 ** 6 - 1])
    assert increments[1] < increments[0]


def test_beta_powers_diverge():
    beta = beta_sequence(10 ** 5)
    # sum beta_k^{1-s} grows like sqrt(k): partial sums must not stabilize
    p = np.cumsum(beta ** 0.5)
    assert p[-1] > 2.0 * p[10 ** 3]


def test_divergent_lower_bound_grows_with_truncation():
    small = divergent_example(10 ** 2, 0.5)
    large = divergent_example(10 ** 4, 0.5)
    assert large.lower_bound >= 3.0 * small.lower_bound


def test_divergent_prefactor_blows_up_toward_s_one():
    assert (divergent_example(100, 0.99).lower_bound
            > divergent_example(100, 0.5).lower_bound)


def test_divergent_intervals_are_disjoint_and_inside_omega():
    ex = divergent_example(50, 0.5)
    ivs = ex.intervals.intervals
    assert all(b < a2 for (_, b), (a2, _) in zip(ivs, ivs[1:]))
    assert ivs[0][0] > 0.0
    assert ivs[-1][1] < ex.total_length


@pytest.fixture(scope="module")
def divergent_4():
    ex = divergent_example(4, 0.5)
    return ex, ex.perimeter_estimate()


def test_divergent_direct_perimeter_exceeds_bound(divergent_4):
    ex, est = divergent_4
    assert 0.5 * est.value > ex.lower_bound


def test_divergent_perimeter_computes_from_five_pairs(divergent_4):
    # at J = 5 the intervals near c ~ 3.7 are 0.0158 long, so the
    # innermost graded cell on each side of a shared end is ~7e-15 wide
    # and a Gauss node there can round onto c (x = y in the pair grid);
    # the oracle is an mpmath value of the same perimeter (perfbench/refs.py)
    ex = divergent_example(5, 0.5)
    est = ex.perimeter_estimate()
    assert est.value > divergent_4[1].value
    assert abs(est.value - 0.011170987575075) <= est.error
    assert 0.5 * est.value > ex.lower_bound
