"""Hermite expansions and the spectral form of the seminorm."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss

from gfp import sets
from gfp.measure import gamma_fn, std_normal_cdf
from gfp.spectral import (
    HermiteExpansion,
    _normalized_hermite_series,
    apply_frac_ou,
    expand,
    ms_limit,
    spectral_seminorm_sq,
)

HALF = sets.IntervalUnion(intervals=((0.0, math.inf),))


# ---------------------------------------------------------------------------
# basis evaluation
# ---------------------------------------------------------------------------

def test_low_degree_values():
    # h_0 = 1, h_1 = x, h_2 = (x^2 - 1)/sqrt(2)
    h = _normalized_hermite_series(0.7, 2)
    assert h[0] == 1.0
    assert h[1] == pytest.approx(0.7, rel=1e-15)
    assert h[2] == pytest.approx((0.49 - 1.0) / math.sqrt(2.0), rel=1e-14)


def test_orthonormality_under_gauss_hermite():
    # invariant: <h_m, h_n> = delta_mn within 1e-10 for m, n <= 30
    z, w = hermgauss(64)
    nodes = math.sqrt(2.0) * z
    weights = w / math.sqrt(math.pi)
    table = _normalized_hermite_series(nodes, 30)
    # one recurrence over every node: each column is that node's own series
    np.testing.assert_array_equal(table[:, 5], _normalized_hermite_series(
        nodes[5], 30))
    gram = table @ (weights[:, None] * table.T)
    np.testing.assert_allclose(gram, np.eye(31), atol=1e-10)


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def test_halfline_indicator_first_coefficients():
    # c_0 = 1/2, c_1 = phi(0) = 1/sqrt(2 pi), c_2 = 0 by the endpoint formula
    exp = expand(HALF, 6)
    assert exp.coeffs[0] == pytest.approx(0.5, abs=1e-15)
    assert exp.coeffs[1] == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                          rel=1e-14)
    assert exp.coeffs[2] == pytest.approx(0.0, abs=1e-15)


def test_quadrature_expansion_of_smooth_function():
    # u(x) = x^2 = h_0 + sqrt(2) h_2: quadrature must nail both modes
    exp = expand(lambda x: x[:, 0] ** 2, 10)
    assert exp.coeffs[0] == pytest.approx(1.0, rel=1e-12)
    assert exp.coeffs[2] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert np.max(np.abs(np.delete(exp.coeffs, [0, 2]))) < 1e-12


def test_endpoint_formula_matches_dense_grid_integration():
    # direct trapezoid integration of h_n against the interval indicator;
    # Gauss-Hermite is the wrong tool for a discontinuous integrand, a
    # dense grid restricted to the interval is exact enough for small n
    e = sets.IntervalUnion(intervals=((-0.5, 1.5),))
    exact = expand(e, 10)
    x = np.linspace(-0.5, 1.5, 400_001)
    dens = np.exp(-x ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
    ref = np.trapezoid(_normalized_hermite_series(x, 10) * dens, x, axis=1)
    np.testing.assert_allclose(exact.coeffs, ref, atol=1e-9)


@given(st.integers(min_value=2, max_value=9))
@settings(max_examples=20, deadline=None)
def test_parseval_partial_sums_monotone(k):
    degrees = [2 ** j for j in range(1, k + 1)]
    sums = [float(expand(HALF, d).coeffs[1:] ** 2 @ np.ones(d))
            for d in degrees]
    assert all(b >= a - 1e-15 for a, b in zip(sums, sums[1:]))
    assert all(s <= 0.25 + 1e-12 for s in sums)  # ||u||^2 - c_0^2 = 1/4


def test_parseval_defect_shrinks_with_degree():
    tails = [expand(HALF, d).tail_bound for d in (100, 10_000, 100_000)]
    assert tails[0] > tails[1] > tails[2]
    # coefficient decay c_n^2 ~ n^(-3/2) gives tail ~ D^(-1/2)
    assert tails[2] == pytest.approx(tails[1] / math.sqrt(10.0), rel=0.2)


def test_quadrature_expansion_refused_at_large_degree():
    with pytest.raises(ValueError):
        expand(lambda x: x[:, 0], 301)


@pytest.mark.parametrize("degree", [60, 100, 200, 300])
def test_quadrature_expansion_of_sin_matches_exact_coefficients(degree):
    # E[sin(X) He_n(X)] = E[sin^(n)(X)]: c_n = e^(-1/2) (-1)^((n-1)/2) / sqrt(n!)
    # on odd n, 0 on even n; the Parseval defect stays at rounding
    n = np.arange(degree + 1)
    exact = np.where(n % 2, np.exp(-0.5 - 0.5 * np.array(
        [math.lgamma(k + 1.0) for k in n])) * (-1.0) ** ((n - 1) // 2), 0.0)
    exp = expand(lambda x: np.sin(x[:, 0]), degree)
    np.testing.assert_allclose(exp.coeffs, exact, rtol=0, atol=1e-14)
    assert exp.tail_bound < 1e-14


def test_quadrature_expansion_refuses_a_nan_parseval_defect():
    # a callable that is NaN at some nodes leaves no coefficient to trust:
    # the Parseval check refuses it rather than report a tail bound of 0
    with pytest.raises(ValueError, match="Parseval"):
        expand(lambda x: np.where(x[:, 0] > 2.0, np.nan, 1.0), 40)


def test_expand_general_interval_mass():
    e = sets.IntervalUnion(intervals=((1.0, 2.0),))
    exp = expand(e, 500)
    assert exp.coeffs[0] == pytest.approx(
        std_normal_cdf(2.0) - std_normal_cdf(1.0), abs=1e-15)


# ---------------------------------------------------------------------------
# spectral functionals
# ---------------------------------------------------------------------------

def h1_expansion():
    return HermiteExpansion(np.array([0.0, 1.0]))


def test_seminorm_single_mode_closed_form():
    # s [h_1]^2 = 2 Gamma(1 - s) for every s; at s = 1/2 this is 2 sqrt(pi)
    for s in (0.1, 0.25, 0.5, 0.9):
        sn = spectral_seminorm_sq(h1_expansion(), s)
        assert s * sn.value == pytest.approx(2.0 * gamma_fn(1.0 - s),
                                             rel=1e-13)
    sn = spectral_seminorm_sq(h1_expansion(), 0.5)
    assert 0.5 * sn.value == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-13)


def test_seminorm_of_constants_vanishes():
    const = HermiteExpansion(np.array([1.0]))
    assert spectral_seminorm_sq(const, 0.3).value == 0.0
    assert ms_limit(const) == 0.0


def test_ms_limit_values():
    # indicator with mass p: 2 p (1 - p); h_1: 2 ||h_1||^2 = 2
    exp = expand(HALF, 100_000)
    assert ms_limit(exp) == pytest.approx(0.5, abs=1e-12)
    assert ms_limit(h1_expansion()) == pytest.approx(2.0, rel=1e-15)


def test_ms_limit_is_the_small_s_seminorm_limit():
    exp = expand(HALF, 5000)
    target = ms_limit(exp)
    s = 2.0 ** -10
    sn = spectral_seminorm_sq(exp, s)
    assert s * sn.value == pytest.approx(target, rel=0.02)


def test_apply_frac_ou_annihilates_constants():
    const = HermiteExpansion(np.array([2.5]))
    out = apply_frac_ou(const, 0.5)
    assert np.all(out.coeffs == 0.0)


def test_apply_frac_ou_mode_one_coefficient():
    # |Gamma(-1/2)| * 1^s = 2 sqrt(pi)
    out = apply_frac_ou(h1_expansion(), 0.5)
    assert out.coeffs[1] == pytest.approx(2.0 * math.sqrt(math.pi),
                                          rel=1e-14)


def test_pairing_identity():
    # 2 s <u, (-L)^s u> = s [u]^2 via s |Gamma(-s)| = Gamma(1 - s)
    exp = expand(HALF, 200)
    for s in (0.25, 0.5):
        lhs = 2.0 * s * (exp.coeffs @ apply_frac_ou(exp, s).coeffs)
        rhs = s * spectral_seminorm_sq(exp, s).value
        assert lhs == pytest.approx(rhs, rel=1e-12)
