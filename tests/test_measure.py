"""Gaussian measures: closed forms, 2-D slices, sampling."""

import importlib
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfp import sets
from gfp.asymptotics import mu_limit
from gfp.errors import RestrictionMassError
from gfp.measure import (
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


@pytest.mark.parametrize("a, b", [(8.0, 9.0), (6.0, 7.0), (-9.0, -8.0)])
def test_tail_interval_mass_keeps_its_digits(a, b):
    # Phi(9) - Phi(8) is 6.2e-16 next to values near 1: formed on that side
    # it keeps no correct digit.  Both tails, and mu_limit, to 1e-14
    e = sets.IntervalUnion(intervals=((a, b),))
    with mp.workdps(40):
        ref = mp.ncdf(b) - mp.ncdf(a)
        mu = 2 * ref * (1 - ref)
    assert abs(gauss_measure(e).value - ref) <= 1e-14 * ref
    assert abs(mu_limit(e).mu - mu) <= 1e-14 * mu


def test_upper_tail_box_mass_keeps_its_digits():
    e = sets.Box(lo=(0.5, 6.0), hi=(2.0, 7.0))
    with mp.workdps(40):
        ref = ((mp.ncdf(2) - mp.ncdf(0.5)) * (mp.ncdf(7) - mp.ncdf(6)))
    assert abs(gauss_measure(e).value - ref) <= 1e-14 * ref


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
# 2-D slice rule
# ---------------------------------------------------------------------------

def _noncentral_disc_mass(center, radius):
    """gamma(B(c, r)) in 2-D: |X - c|^2 is noncentral chi^2_2 with
    lambda = |c|^2, a Poisson(lambda/2) mixture of chi^2_(2+2j) laws."""
    with mp.workdps(40):
        half_lam = (mp.mpf(center[0]) ** 2 + mp.mpf(center[1]) ** 2) / 2
        y = mp.mpf(radius) ** 2 / 2
        total, j = mp.mpf(0), 0
        while True:
            term = (mp.exp(-half_lam) * half_lam ** j / mp.factorial(j)
                    * mp.gammainc(1 + j, 0, y, regularized=True))
            total += term
            j += 1
            if j > half_lam and term < mp.mpf(10) ** -30:
                return float(total)


@pytest.mark.parametrize("center, radius", [
    ((1.0, 0.0), 1.0), ((0.37, -0.81), 0.52), ((-1.0, 0.9), 1.5),
    ((2.5, 2.0), 0.3)])
def test_off_center_disc_matches_noncentral_chi2(center, radius):
    est = gauss_measure(sets.Ball(center=center, radius=radius))
    assert est.method == "slice-quadrature"
    dev = abs(est.value - _noncentral_disc_mass(center, radius))
    assert dev <= 1e-14 and dev <= est.error


def _halfplane_disc_mass_mp(normal, offset, center, radius):
    """gamma({x.n <= o} & B(c, r)) by mpmath's slice integral, n2 > 0:
    each slice of the disc is cut from above by the line."""
    n1, n2, o = (mp.mpf(v) for v in (*normal, offset))
    c1, c2, r = (mp.mpf(v) for v in (*center, radius))

    def slice_mass(x):
        w = mp.sqrt(max(r * r - (x - c1) ** 2, 0))
        top = min(c2 + w, (o - n1 * x) / n2)
        return mp.npdf(x) * max(mp.ncdf(top) - mp.ncdf(c2 - w), 0)

    # where the line crosses the circle: the integrand's kinks
    dist = o - n1 * c1 - n2 * c2
    cuts = [c1 - r, c1 + r]
    if abs(dist) < r:
        half = mp.sqrt(r * r - dist * dist)
        cuts += [c1 + dist * n1 - half * n2, c1 + dist * n1 + half * n2]
    with mp.workdps(30):
        return float(mp.quad(slice_mass, sorted(cuts)))


def test_halfplane_and_disc_match_an_mpmath_slice_integral():
    normal, offset, center, radius = (0.6, 0.8), 0.2, (0.4, -0.3), 1.1
    est = gauss_measure(sets.Intersection(
        sets.HalfSpace(normal, offset), sets.Ball(center, radius)))
    ref = _halfplane_disc_mass_mp(normal, offset, center, radius)
    assert abs(est.value - ref) <= min(est.error, 1e-14)


def test_nearly_vertical_line_slices_without_overflow():
    # n[1] = 1e-308 puts the line's crossings at |y| ~ 1e308: no warning,
    # and the slices of the vertical line x = 0.3
    ball = sets.Ball((0.5, 0.0), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = gauss_measure(sets.Intersection(
            sets.HalfSpace((1.0, 1e-308), 0.3), ball))
    assert est == gauss_measure(sets.Intersection(
        sets.HalfSpace((1.0, 0.0), 0.3), ball))
    # the same set turned by 90 degrees, which the helper can slice
    ref = _halfplane_disc_mass_mp((0.0, 1.0), 0.3, (0.0, 0.5), 1.0)
    assert abs(est.value - ref) <= min(est.error, 1e-14)


_NORMALS = st.sampled_from([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.6, -0.8)])
_ANGLES = st.floats(min_value=0.0, max_value=2 * math.pi).map(
    lambda a: (math.cos(a), math.sin(a)))
_COORD = st.floats(min_value=-2.0, max_value=2.0)
_PRIMITIVES = st.one_of(
    st.builds(sets.HalfSpace, st.one_of(_NORMALS, _ANGLES), _COORD),
    st.builds(lambda lo, size: sets.Box(lo, (lo[0] + size[0], lo[1] + size[1])),
              st.tuples(_COORD, _COORD),
              st.tuples(*[st.floats(min_value=0.1, max_value=3.0)] * 2)),
    st.builds(sets.Ball, st.tuples(_COORD, _COORD),
              st.floats(min_value=0.1, max_value=2.5)))


@given(_PRIMITIVES, _PRIMITIVES)
@settings(max_examples=60, deadline=None)
def test_slices_add_up_over_complements(a, omega):
    # gamma(A & W) + gamma(A^c & W) = gamma(W) and gamma(X) + gamma(X^c) = 1
    inside = gauss_measure(sets.Intersection(a, omega), dim=2)
    outside = gauss_measure(sets.Intersection(sets.Complement(a), omega), dim=2)
    rest = gauss_measure(sets.Complement(sets.Intersection(a, omega)), dim=2)
    total = gauss_measure(omega, dim=2).value
    assert abs(inside.value + outside.value - total) <= 1e-14
    assert abs(inside.value + rest.value - 1.0) <= 1e-14


def test_2d_measures_draw_no_random_number(monkeypatch):
    def refuse(*args):
        raise AssertionError("a measure drew a random number")

    monkeypatch.setattr(importlib.import_module("gfp.measure"), "_rng", refuse)
    e = sets.Ball(center=(0.5, -0.2), radius=0.8)
    omega = sets.Box(lo=(-1.5, -1.0), hi=(1.2, 1.8))
    assert gauss_measure(sets.Difference(omega, e)).value > 0.0
    lv = mu_limit(e, omega, dim=2, seed=7)
    assert lv.method == "slice-quadrature" and 0.0 < lv.mu < 1.0


def test_measures_beyond_two_dimensions_need_a_closed_form():
    ball = sets.Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    box = sets.Box(lo=(0.0,) * 3, hi=(1.0,) * 3)
    with pytest.raises(NotImplementedError):
        gauss_measure(sets.Intersection(ball, box))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

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


def test_sample_gaussian_is_the_philox_stream():
    # the stream does not depend on how sample_gaussian cuts it: 70,000
    # draws cross a block boundary, unrestricted and conditioned on a box
    direct = np.random.Generator(np.random.Philox(key=(3, 4))).standard_normal(
        (200_000, 2))
    np.testing.assert_array_equal(
        sample_gaussian(70_000, seed=3, dim=2, stream=4), direct[:70_000])
    box = sets.Box(lo=(-0.5, 0.0), hi=(1.0, 2.0))
    inside = direct[np.all((direct > box.lo) & (direct < box.hi), axis=1)]
    np.testing.assert_array_equal(
        sample_gaussian(20_000, seed=3, dim=2, restrict=box, stream=4),
        inside[:20_000])


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
