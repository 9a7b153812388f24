"""Gaussian measures: closed forms, Monte Carlo fallback, sampling."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfp import sets
from gfp.errors import RestrictionMassError
from gfp.measure import (
    GaussianMeasure,
    LambdaMeasure,
    _chi2_ball_mass,
    _gauss_rule,
    abs_gamma_neg,
    gamma_fn,
    gauss_measure,
    sample_gaussian,
    std_normal_cdf,
)

# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def test_std_normal_cdf_reference_values():
    assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert std_normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-14)
    # far tail must not underflow to garbage
    assert std_normal_cdf(-38.0) == pytest.approx(2.885e-316, rel=1e-3)


def test_gamma_fn_values():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-15)
    with pytest.raises(ValueError):
        gamma_fn(-1.0)


def test_abs_gamma_neg_reflection():
    # |Gamma(-s)| = Gamma(1-s)/s; at s=0.5 this is 2 sqrt(pi)
    assert abs_gamma_neg(0.5) == pytest.approx(2.0 * math.sqrt(math.pi),
                                               rel=1e-15)
    assert abs_gamma_neg(1e-4) == pytest.approx(1e4, rel=1e-3)


# ---------------------------------------------------------------------------
# closed-form measures
# ---------------------------------------------------------------------------

def test_halfspace_mass():
    est = gauss_measure(sets.HalfSpace(normal=(0.6, 0.8), offset=1.0))
    assert est.method == "closed-form"
    assert est.value == pytest.approx(std_normal_cdf(1.0), abs=1e-15)


def test_interval_union_mass():
    e = sets.IntervalUnion(intervals=((0.0, 1.0), (2.0, 3.0)))
    expect = (std_normal_cdf(1.0) - 0.5) + (std_normal_cdf(3.0)
                                            - std_normal_cdf(2.0))
    assert gauss_measure(e).value == pytest.approx(expect, abs=1e-15)


def test_box_mass_is_product():
    e = sets.Box(lo=(-1.0, 0.0), hi=(1.0, 2.0))
    expect = ((std_normal_cdf(1.0) - std_normal_cdf(-1.0))
              * (std_normal_cdf(2.0) - 0.5))
    assert gauss_measure(e).value == pytest.approx(expect, rel=1e-14)


def test_centered_ball_chi_square():
    # N=2: gamma(B_r) = 1 - exp(-r^2/2)
    e = sets.Ball(center=(0.0, 0.0), radius=1.5)
    assert gauss_measure(e).value == pytest.approx(
        1.0 - math.exp(-1.5 ** 2 / 2.0), rel=1e-12)


@pytest.mark.parametrize("n_dim", range(1, 8))
def test_chi2_ball_mass_matches_mpmath(n_dim):
    # gamma(B_r) = P(N/2, r^2/2), the regularised lower incomplete gamma;
    # relative accuracy is kept down to tiny radii and up to P = 1
    for r in np.geomspace(1e-3, 40.0, 25):
        ref = float(mp.gammainc(mp.mpf(n_dim) / 2, 0, mp.mpf(r) ** 2 / 2,
                                regularized=True))
        assert _chi2_ball_mass(n_dim, r) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("n", [64, 201, 1001])
def test_gauss_rule_moments(n):
    # E cos(kX) = e^(-k^2/2) and E X^4 = 3 under the standard Gaussian
    nodes, weights = _gauss_rule(n)
    assert np.all(np.diff(nodes) > 0) and np.all(weights >= 0)
    for k in (1.0, 2.0, 3.0):
        assert weights @ np.cos(k * nodes) == pytest.approx(
            math.exp(-k * k / 2.0), abs=1e-14)
    assert weights @ nodes ** 4 == pytest.approx(3.0, rel=1e-14)


def test_complement_rule_exact():
    e = sets.Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    m = gauss_measure(e).value
    mc = gauss_measure(sets.Complement(e))
    assert mc.method == "closed-form"
    assert m + mc.value == 1.0


@given(st.floats(min_value=-3, max_value=3),
       st.floats(min_value=0.1, max_value=3))
@settings(max_examples=50, deadline=None)
def test_1d_reduction_matches_box(center, half):
    iv = sets.IntervalUnion(intervals=((center - half, center + half),))
    box = sets.Box(lo=(center - half,), hi=(center + half,))
    assert gauss_measure(iv).value == pytest.approx(
        gauss_measure(box, dim=1).value, rel=1e-13)


# ---------------------------------------------------------------------------
# Monte Carlo fallback
# ---------------------------------------------------------------------------

def test_off_center_ball_routes_to_mc():
    e = sets.Ball(center=(1.0, 0.0), radius=1.0)
    est = gauss_measure(e, seed=0)
    assert est.method == "monte-carlo"
    assert est.std_error > 0
    # oracle by dense polar quadrature of the off-center disc
    r = np.linspace(0, 1, 2001)[1:]
    th = np.linspace(0, 2 * math.pi, 2001)[:-1]
    rr, tt = np.meshgrid(r, th)
    x = 1.0 + rr * np.cos(tt)
    y = rr * np.sin(tt)
    dens = np.exp(-(x ** 2 + y ** 2) / 2) / (2 * math.pi)
    oracle = float(np.sum(dens * rr) * (r[1] - r[0]) * (th[1] - th[0]))
    assert est.value == pytest.approx(oracle, abs=4 * est.std_error + 1e-4)


def test_mc_is_deterministic():
    e = sets.Ball(center=(0.5, 0.5), radius=0.7)
    a = gauss_measure(e, seed=3)
    b = gauss_measure(e, seed=3)
    assert a == b


def test_mc_counts_the_draws_of_sample_gaussian():
    # the count runs block by block; 65537 draws cross a block boundary
    e = sets.Ball(center=(0.5, -0.2), radius=0.8)
    for n in (1000, 65537):
        pts = sample_gaussian(n, seed=4, dim=2)
        est = gauss_measure(e, n_mc=n, seed=4)
        assert est.value == float(np.mean(sets.contains(e, pts)))


# ---------------------------------------------------------------------------
# densities and sampling
# ---------------------------------------------------------------------------

def test_density_normalizations():
    x = np.zeros((1, 2))
    assert GaussianMeasure(2).density(x)[0] == pytest.approx(
        1.0 / (2 * math.pi), rel=1e-15)
    # lambda total mass is 2^(N/2)
    assert LambdaMeasure(2).total_mass == pytest.approx(2.0, rel=1e-15)
    z = np.random.default_rng(0).uniform(-8, 8, size=(200_000, 1))
    mass = float(np.mean(LambdaMeasure(1).density(z))) * 16.0
    assert mass == pytest.approx(math.sqrt(2.0), rel=5e-3)


def test_sample_gaussian_moments():
    pts = sample_gaussian(200_000, seed=0, dim=2)
    assert pts.shape == (200_000, 2)
    assert np.abs(pts.mean(axis=0)).max() < 0.01
    assert np.abs(pts.var(axis=0) - 1.0).max() < 0.02


def test_sample_streams_are_independent_and_reproducible():
    a = sample_gaussian(100, seed=1, stream=0)
    b = sample_gaussian(100, seed=1, stream=1)
    assert not np.allclose(a, b)
    np.testing.assert_array_equal(a, sample_gaussian(100, seed=1, stream=0))


def test_restricted_sampling():
    e = sets.IntervalUnion(intervals=((0.0, math.inf),))
    pts = sample_gaussian(5000, seed=0, restrict=e)
    assert np.all(pts >= 0.0)
    # restriction to the full space must be bit-identical to no restriction
    np.testing.assert_array_equal(
        sample_gaussian(64, seed=5, restrict=sets.FullSpace()),
        sample_gaussian(64, seed=5))


def test_restriction_to_negligible_mass_fails_fast():
    tiny = sets.IntervalUnion(intervals=((9.0, 9.0001),))
    with pytest.raises(RestrictionMassError):
        sample_gaussian(10, seed=0, restrict=tiny)
