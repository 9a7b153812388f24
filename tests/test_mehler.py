"""Mehler kernel, subordination quadrature and the analytic bounds."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfp.errors import SingularInputError, ToleranceError
from gfp.mehler import (
    kernel_K,
    kernel_batch,
    kernel_lower_bound,
    kernel_sums,
    kernel_upper_bound,
    kernel_upper_bound_radial,
    mehler,
    semigroup_mass,
)

# ---------------------------------------------------------------------------
# Mehler kernel
# ---------------------------------------------------------------------------

def test_mehler_reference_value():
    # oracle: direct high-precision evaluation of the two-point formula,
    # N=1, t=1, x=1, y=-1 (frozen from a 30-digit computation)
    assert mehler(1.0, (1.0,), (-1.0,)) == pytest.approx(
        0.6009341138854598, rel=1e-13)


def test_mehler_long_time_forgets_the_pair():
    # M_t -> 1 as t -> infinity for every (x, y)
    assert mehler(50.0, (2.0, -1.0), (0.3, 0.7)) == pytest.approx(1.0,
                                                                 abs=1e-12)


def test_mehler_short_time_peaks_on_the_diagonal():
    on = mehler(0.01, (0.5,), (0.5,))
    off = mehler(0.01, (0.5,), (0.6,))
    assert on > off
    # on the diagonal the exponent collapses to x^2 e^{-t} / (1 + e^{-t})
    t, xsq = 0.01, 0.25
    expect = ((1 - math.exp(-2 * t)) ** -0.5
              * math.exp(xsq * math.exp(-t) / (1 + math.exp(-t))))
    assert on == pytest.approx(expect, rel=1e-12)


def test_mehler_symmetry():
    assert mehler(0.7, (1.2, -0.3), (0.4, 2.0)) == pytest.approx(
        mehler(0.7, (0.4, 2.0), (1.2, -0.3)), rel=1e-15)


def test_mehler_far_pair_small_time_no_cancellation():
    # near-coincident points far from the origin: the naive grouping of the
    # exponent loses ~30 digits here; the separated form must stay finite
    # and close to the Euclidean heat-kernel value
    t, x, y = 1e-4, 8.0, 8.0 + 1e-6
    val = mehler(t, (x,), (y,))
    # leading short-time asymptote: Euclidean heat kernel times the
    # e^{(|x|^2+|y|^2)/4} prefactor; corrections are O(t |x|^2) ~ 1%
    heat = (2 * t) ** -0.5 * math.exp(-(y - x) ** 2 / (4 * t))
    assert val == pytest.approx(heat * math.exp((x * x + y * y) / 4.0),
                                rel=0.02)


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("x", [(0.3,), (-1.2,), (0.3, -0.7), (1.5, 1.5)])
def test_stochastic_completeness(t, x):
    # the semigroup preserves the Gaussian measure: int M_t(x, .) dgamma = 1
    assert semigroup_mass(t, x) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# subordinated kernel
# ---------------------------------------------------------------------------

def test_kernel_reference_value():
    # oracle: 30-digit adaptive quadrature of int_0^inf M_t t^{-s/2-1} dt
    kv = kernel_K(0.5, (0.0,), (1.0,))
    assert kv.value == pytest.approx(6.3744757378536105, rel=1e-10)
    assert kv.error_bound < 1e-8 * kv.value


def test_kernel_symmetry():
    a = kernel_K(0.3, (0.5, -0.2), (1.0, 0.4))
    b = kernel_K(0.3, (1.0, 0.4), (0.5, -0.2))
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_kernel_singular_at_coincidence():
    with pytest.raises(SingularInputError):
        kernel_K(0.5, (1.0,), (1.0,))


@pytest.mark.parametrize("sigma", [-0.1, 0.0, 2.0, 2.5])
def test_kernel_sigma_domain(sigma):
    with pytest.raises(ValueError):
        kernel_K(sigma, (0.0,), (1.0,))


def test_kernel_rel_tol_validation():
    with pytest.raises(ValueError):
        kernel_K(0.5, (0.0,), (1.0,), rel_tol=0.0)


def test_kernel_tight_tolerance_unreachable():
    with pytest.raises(ToleranceError) as info:
        kernel_K(0.5, (0.0,), (1.0,), rel_tol=1e-16)
    assert info.value.value is not None  # partial result still reported


@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.05, max_value=4.0),
       st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_kernel_monotone_in_separation(sigma, r, a):
    near = kernel_K(sigma, (a,), (a + r,))
    far = kernel_K(sigma, (a,), (a + r + 0.5,))
    # radial decay holds along a fixed ray from x
    assert far.value < near.value * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# analytic bounds
# ---------------------------------------------------------------------------

def test_lower_bound_constant():
    # C_{N,s} = 2^{s+N/2} Gamma((s+N)/2) is exact in the r -> 0 limit
    sigma, r = 0.5, 1e-3
    lo = kernel_lower_bound(sigma, (0.0,), (r,))
    expect = 2.0 ** (sigma + 0.5) * math.gamma((sigma + 1) / 2) / r ** (1 + sigma)
    assert lo == pytest.approx(expect, rel=1e-14)
    kv = kernel_K(sigma, (0.0,), (r,))
    assert lo <= kv.value * (1.0 + 1e-9)
    assert kv.value == pytest.approx(lo, rel=5e-3)  # sharp near contact


def test_upper_bound_radial_is_decreasing():
    vals = [kernel_upper_bound_radial(0.5, r, 1) for r in (0.1, 0.5, 1.0, 3.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_bounds_bracket_the_kernel():
    rng = np.random.default_rng(7)
    for _ in range(25):
        sigma = float(rng.choice([0.1, 0.5, 0.9]))
        n = int(rng.choice([1, 2]))
        x = rng.normal(size=n)
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)
        y = x + rng.uniform(0.05, 5.0) * d
        kv = kernel_K(sigma, x, y)
        assert kernel_lower_bound(sigma, x, y) <= kv.value + kv.error_bound
        assert kv.value - kv.error_bound <= kernel_upper_bound(sigma, x, y)


# ---------------------------------------------------------------------------
# vectorized engine
# ---------------------------------------------------------------------------

def _subordination_mp(sigma, x, y):
    """int_0^inf M_t(x, y) t^(-sigma/2-1) dt in mpmath, independent of gfp.

    In v = log t the Gauss-Weierstrass spike at t -> 0 is a smooth bump,
    integrated from t = r^2/400 up to T = 40; beyond T the Mehler factor
    is 1 to ~e^-40 |x.y|, so the rest is the power tail
    (2/sigma) T^(-sigma/2).
    """
    with mp.workdps(25):
        x = [mp.mpf(float(c)) for c in x]
        y = [mp.mpf(float(c)) for c in y]
        n = len(x)
        sq = sum(c * c for c in x) + sum(c * c for c in y)
        rsq = sum((a - b) ** 2 for a, b in zip(x, y))
        sigma, big_t = mp.mpf(sigma), mp.mpf(40)

        def integrand(v):
            t = mp.exp(v)
            a, em = mp.exp(-t), -mp.expm1(-2 * t)
            log_m = (-n / mp.mpf(2) * mp.log(em) - a * rsq / (2 * em)
                     + a * sq / (2 * (1 + a)))
            return mp.exp(log_m - sigma * v / 2)

        # below t = r^2/400 the integrand is below e^-100 of its peak
        cuts = [c for c in (mp.log(rsq / 400), mp.log(rsq / 4))
                if c < mp.log(big_t)]
        near = mp.quad(integrand, cuts + [mp.log(big_t)])
        return float(near + (2 / sigma) * big_t ** (-sigma / 2))


BATCH_CASES = [
    (0.5, (0.0,), (1.0,)),
    (0.1, (1.3,), (1.35,)),
    (0.9, (-2.0,), (1.5,)),
    (1.5, (0.4,), (0.2,)),
    (0.3, (0.5, -0.2), (1.0, 0.4)),
    (0.9, (-1.0, 2.0), (0.5, 2.1)),
    (1.2, (0.0, 0.0), (3.0, -4.0)),
]
BATCH_PAIRS = {n: [(x, y) for _, x, y in BATCH_CASES if len(x) == n]
               for n in (1, 2)}


def test_batch_agrees_with_scalar():
    # one pair at a time through the batch and through kernel_K, against
    # mpmath, for N = 1 and N = 2
    for sigma, x, y in BATCH_CASES:
        x, y = np.asarray(x), np.asarray(y)
        vals, errs = kernel_batch(sigma, sq=np.array([x @ x + y @ y]),
                                  rsq=np.array([(x - y) @ (x - y)]),
                                  n_dim=x.size)
        ref = _subordination_mp(sigma, x, y)
        assert abs(vals[0] - ref) <= errs[0]
        assert errs[0] <= 1e-8 * vals[0]
        kv = kernel_K(sigma, x, y)
        assert kv.value == pytest.approx(vals[0], rel=1e-13)


def test_kernel_sums_match_batch_and_mpmath_for_every_sigma():
    # one weighted pass over four indices: per pair (weight 1) each index
    # equals its own kernel_batch call and its bound covers mpmath; over
    # several pairs the weighted sums equal the weighted batch values
    sigmas = np.array([0.1, 0.5, 0.9, 1.5])
    for n_dim, pairs in BATCH_PAIRS.items():
        x, y = (np.array(p, dtype=float) for p in zip(*pairs))
        sq = np.einsum("ij,ij->i", x, x) + np.einsum("ij,ij->i", y, y)
        rsq = np.einsum("ij,ij->i", x - y, x - y)
        w = np.linspace(0.5, 2.0, len(pairs))
        for p in range(len(pairs)):
            vals, errs = kernel_sums(
                sigmas, n_pairs=1, n_dim=n_dim,
                pairs=lambda idx, p=p: (sq[p:p + 1], rsq[p:p + 1], np.ones(1)))
            for k, sigma in enumerate(sigmas):
                kb, _ = kernel_batch(sigma, sq=sq[p:p + 1], rsq=rsq[p:p + 1],
                                     n_dim=n_dim)
                assert vals[k] == pytest.approx(kb[0], rel=1e-14)
                ref = _subordination_mp(sigma, x[p], y[p])
                assert abs(vals[k] - ref) <= errs[k]
        vals, _ = kernel_sums(sigmas, n_pairs=len(pairs), n_dim=n_dim,
                              pairs=lambda idx: (sq[idx], rsq[idx], w[idx]))
        for k, sigma in enumerate(sigmas):
            kb, _ = kernel_batch(sigma, sq=sq, rsq=rsq, n_dim=n_dim)
            assert vals[k] == pytest.approx(kb @ w, rel=1e-14)


def test_batch_rejects_coincident_pairs():
    with pytest.raises(SingularInputError):
        kernel_batch(0.5, sq=np.array([2.0]), rsq=np.array([0.0]), n_dim=1)
