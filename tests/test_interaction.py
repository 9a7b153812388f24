"""Interaction energies, perimeters and the direct seminorm."""

import importlib
import math

import mpmath as mp
import numpy as np
import pytest

from gfp import sets
from gfp.errors import BudgetExceededError, OverlapError
from gfp.interaction import (
    Budget,
    _clip_intervals,
    interaction,
    j_lambda,
    perimeter,
    seminorm_sq_direct,
)
from gfp.measure import gamma_fn, gauss_measure
from gfp.spectral import expand, spectral_seminorm_sq

HALF = sets.IntervalUnion(intervals=((0.0, math.inf),))
UNIT = sets.IntervalUnion(intervals=((0.0, 1.0),))
FAR = sets.IntervalUnion(intervals=((2.0, 3.0),))


# ---------------------------------------------------------------------------
# 1-D quadrature route
# ---------------------------------------------------------------------------

def test_interaction_reference_value():
    # frozen from an independent dense-tensor-product quadrature of the
    # subordinated kernel over (0,1) x (2,3) at s = 1/2
    est = interaction(UNIT, FAR, 0.5)
    assert est.method == "graded-quadrature-1d"
    assert est.value == pytest.approx(0.04049230341905505, rel=1e-8)
    assert est.error < 1e-6 * est.value


def test_interaction_symmetry():
    a = interaction(UNIT, FAR, 0.3)
    b = interaction(FAR, UNIT, 0.3)
    assert a.value == pytest.approx(b.value, rel=1e-9)


def test_interaction_touching_sets_is_finite():
    # the |x-y|^(-1-s) singularity along the shared endpoint is integrable
    left = sets.IntervalUnion(intervals=((-1.0, 0.0),))
    right = sets.IntervalUnion(intervals=((0.0, 1.0),))
    est = interaction(left, right, 0.5)
    assert math.isfinite(est.value)
    assert est.value > 0
    assert est.error < 1e-5 * est.value


def test_interaction_overlap_raises():
    with pytest.raises(OverlapError):
        interaction(UNIT, sets.IntervalUnion(intervals=((0.5, 2.0),)), 0.5)


def test_interaction_empty_operand_is_zero():
    est = interaction(UNIT, sets.Empty(), 0.5, dim=1)
    assert est.value == 0.0 and est.error == 0.0


def test_interaction_s_domain():
    with pytest.raises(ValueError):
        interaction(UNIT, FAR, 1.5)


def test_budget_is_enforced():
    budget = Budget(max_evals=10)
    with pytest.raises(BudgetExceededError):
        interaction(UNIT, FAR, 0.5, budget=budget)


def test_interaction_monotone_under_set_growth():
    bigger = sets.IntervalUnion(intervals=((2.0, 4.0),))
    small = interaction(UNIT, FAR, 0.5)
    large = interaction(UNIT, bigger, 0.5)
    assert large.value > small.value


# ---------------------------------------------------------------------------
# Monte Carlo route (N = 2)
# ---------------------------------------------------------------------------

def test_mc_matches_quadrature_on_a_product_case():
    # A = (0,1) x R, B = (2,3) x R: the second coordinate integrates out
    # against a kernel that is NOT a product, so compare against a 2-D
    # Monte Carlo of the same integral with a different seed instead
    a = sets.Box(lo=(0.0, -8.0), hi=(1.0, 8.0))
    b = sets.Box(lo=(2.0, -8.0), hi=(3.0, 8.0))
    e1 = interaction(a, b, 0.5, dim=2, seed=0)
    e2 = interaction(a, b, 0.5, dim=2, seed=1)
    assert e1.method == "monte-carlo"
    assert abs(e1.value - e2.value) < 4.0 * (e1.error + e2.error)
    assert e1.error < 0.05 * e1.value


def test_mc_touching_sets_have_finite_variance():
    a = sets.HalfSpace(normal=(1.0, 0.0), offset=0.0)
    b = sets.Complement(a)
    est = interaction(a, b, 0.5, dim=2, seed=0)
    assert math.isfinite(est.value)
    assert est.error < 0.2 * est.value


def test_mc_determinism():
    a = sets.Box(lo=(0.0, 0.0), hi=(1.0, 1.0))
    b = sets.Ball(center=(0.0, 0.0), radius=4.0)
    b = sets.Difference(b, sets.Box(lo=(-1.0, -1.0), hi=(2.0, 2.0)))
    r1 = interaction(a, b, 0.5, dim=2, seed=9)
    r2 = interaction(a, b, 0.5, dim=2, seed=9)
    assert r1 == r2


def test_mc_does_not_depend_on_the_block_size(monkeypatch):
    a = sets.Ball(center=(0.3, 0.0), radius=1.0)
    b = sets.Complement(a)
    blocked = interaction(a, b, 0.4, dim=2, seed=2)
    monkeypatch.setattr(importlib.import_module("gfp.interaction"),
                        "_BLOCK", 10 ** 6)
    assert interaction(a, b, 0.4, dim=2, seed=2) == blocked


# ---------------------------------------------------------------------------
# perimeter
# ---------------------------------------------------------------------------

def test_perimeter_full_window_has_no_cross_terms():
    br = perimeter(HALF, sets.FullSpace(), 0.5, dim=1)
    assert br.nonlocal_out.value == 0.0
    assert br.nonlocal_in.value == 0.0
    assert br.total.value == br.local.value > 0


def test_perimeter_of_empty_and_full_sets_vanishes():
    om = sets.IntervalUnion(intervals=((-1.0, 1.0),))
    assert perimeter(sets.Empty(), om, 0.5, dim=1).total.value == 0.0
    assert perimeter(sets.FullSpace(), om, 0.5, dim=1).total.value == 0.0


def test_perimeter_complement_symmetry():
    om = sets.IntervalUnion(intervals=((-1.0, 1.0),))
    p = perimeter(HALF, om, 0.5, dim=1).total
    pc = perimeter(sets.complement(HALF), om, 0.5, dim=1).total
    assert p.value == pytest.approx(pc.value, rel=1e-7)


def _halfline_s_perimeter_mp(s):
    """s * L_s((0, inf), (-inf, 0)) by mpmath, independent of the engine.

    L = int_0^inf t^(-s/2-1) F(t) dt with Sheppard's F(t) = P(X > 0, Y < 0)
    = atan(sqrt(expm1(2t))) / 2pi for a standard Gaussian pair of
    correlation e^-t.  On (0, 1] the substitution t = w^(2/(1-s)) removes
    the sqrt(t) singularity; on [1, inf) F = 1/4 - G with
    G = atan(1/sqrt(expm1(2t))) / 2pi, whose 1/4 part integrates to
    (2/s)/4 and whose G part is below 1e-27 past t = 64.
    """
    with mp.workdps(20):
        s = mp.mpf(s)
        p = 2 / (1 - s)

        def near(w):
            t = w ** p
            return (p * w ** (-s / (1 - s) - 1)
                    * mp.atan(mp.sqrt(mp.expm1(2 * t))) / (2 * mp.pi))

        def far(t):
            return (t ** (-s / 2 - 1)
                    * mp.atan(1 / mp.sqrt(mp.expm1(2 * t))) / (2 * mp.pi))

        return float(s * (mp.quad(near, [0, 1]) + (2 / s) / 4
                          - mp.quad(far, [1, 64])))


@pytest.mark.parametrize("s", [0.5, 0.6, 0.75, 0.9])
def test_perimeter_halfspace_reference(s):
    # above s ~ 0.55 the bar covers the reference only with the corner
    # correction at the shared endpoint
    ref = _halfline_s_perimeter_mp(s)   # 0.91981851620950994453 at s = 1/2
    p = perimeter(HALF, sets.FullSpace(), s, dim=1).total
    assert s * p.value == pytest.approx(ref, rel=1e-7 if s <= 0.75 else 2e-6)
    assert abs(p.value - ref / s) <= p.error


def _far_halfline_perimeter_mp(c, s):
    """P_s((c, inf); R) by mpmath through Owen's T, for c > 0.

    F(t) = P(X > c, Y < c) = 2 T(c, sqrt(tanh(t/2))) with
    T(h, a) = int_0^a e^(-h^2 (1 + x^2)/2) / (1 + x^2) dx / 2pi.  The x
    range of F(t) is tanh(t/2) > x^2, i.e. t > 2 artanh(x^2), so the
    time integral is done in closed form and leaves
    (2/(pi s)) int_0^1 e^(-c^2 (1 + x^2)/2) / (1 + x^2)
    (2 artanh(x^2))^(-s/2) dx.
    """
    with mp.workdps(25):
        c, s = mp.mpf(c), mp.mpf(s)

        def integrand(x):
            return (mp.exp(-c * c * (1 + x * x) / 2) / (1 + x * x)
                    * (2 * mp.atanh(x * x)) ** (-s / 2))

        return float(2 / (mp.pi * s) * mp.quad(integrand, [0, 0.5, 1]))


@pytest.mark.parametrize("c", [8.5, 9.0])
def test_perimeter_of_a_far_halfline(c):
    # an interface beyond the default clipping radius 8.6 must still be
    # meshed; clipping it away leaves 0 +- 0
    e = sets.IntervalUnion(intervals=((c, math.inf),))
    p = perimeter(e, sets.FullSpace(), 0.5, dim=1).total
    ref = _far_halfline_perimeter_mp(c, 0.5)   # 1.97059173e-18 at c = 9
    assert abs(p.value - ref) <= p.error
    assert p.value == pytest.approx(ref, rel=1e-7)


@pytest.mark.parametrize("scale, radius", [(1.0, 8.6), (math.sqrt(2.0), 12.2)])
def test_clipped_tail_mass_is_mirror_symmetric(scale, radius):
    # both clipped tails of a half-line under gamma (scale 1) and lambda
    # (scale sqrt 2): scale Phi(-R / scale), which cdf(inf) - cdf(R)
    # rounds to 0.0
    expect = scale * 0.5 * math.erfc(radius / (scale * math.sqrt(2.0)))
    _, upper = _clip_intervals([(0.3, math.inf)], radius, scale)
    _, lower = _clip_intervals([(-math.inf, -0.3)], radius, scale)
    assert upper == pytest.approx(expect, rel=1e-12)
    assert lower == pytest.approx(expect, rel=1e-12)


def test_perimeter_skips_empty_pieces_in_higher_dimension():
    # over R^2 two of the three pieces have an empty operand: they must
    # cost nothing, so the one real piece gets the whole budget
    budget = Budget(200_000)
    p = perimeter(sets.HalfSpace((1.0, 0.0), 0.3), sets.FullSpace(), 0.5,
                  dim=2, budget=budget).total
    assert budget.used == 200_000
    assert p.method == "monte-carlo"
    assert p.value > 0


def test_perimeter_validates_s_when_every_piece_is_empty():
    with pytest.raises(ValueError):
        perimeter(sets.FullSpace(), sets.FullSpace(), 1.5)


# ---------------------------------------------------------------------------
# weighted competitor
# ---------------------------------------------------------------------------

def test_j_lambda_positive_and_finite():
    est = j_lambda(HALF, sets.FullSpace(), 0.5, dim=1).total
    assert math.isfinite(est.value)
    assert est.value > 0


def _halfline_j_lambda_mp(c, s, dps=20):
    """J^lambda_s((c, inf); R) by mpmath, independent of the engine.

    With r = y - x and x = c - r theta the pair integral is
    int_0^inf r^(-s) int_0^1 rho(c - r theta) rho(c + r (1 - theta))
    dtheta dr, rho(x) = e^(-x^2/4) / sqrt(2 pi).  The exponent is
    -(c + r (1/2 - theta))^2 / 2 - r^2 / 8, so the theta integral is
    e^(-r^2/8) (Phi(c + r/2) - Phi(c - r/2)) / (r sqrt(2 pi)).
    """
    with mp.workdps(dps):
        c, s = mp.mpf(c), mp.mpf(s)

        def integrand(r):
            inner = (mp.exp(-r * r / 8) * (mp.ncdf(c + r / 2) - mp.ncdf(c - r / 2))
                     / (r * mp.sqrt(2 * mp.pi)))
            return r ** (-s) * inner

        return float(mp.quad(integrand, [0, 1, 4, 16, mp.inf]))


@pytest.mark.parametrize("s", [0.6, 0.75])
def test_j_lambda_halfline_reference(s):
    c = 0.3
    e = sets.IntervalUnion(intervals=((c, math.inf),))
    est = j_lambda(e, sets.FullSpace(), s, dim=1).total
    assert abs(est.value - _halfline_j_lambda_mp(c, s)) <= est.error


def test_j_lambda_of_a_far_halfline():
    # c = 12 lies beyond lambda's default clipping radius 12.2 less three
    # standard deviations; the reference needs 40 digits, because
    # Phi(c + r/2) - Phi(c - r/2) is ~1e-33 against values near 1
    c = 12.0
    e = sets.IntervalUnion(intervals=((c, math.inf),))
    est = j_lambda(e, sets.FullSpace(), 0.5, dim=1).total
    ref = _halfline_j_lambda_mp(c, 0.5, dps=40)   # 5.2114355302688e-19
    assert abs(est.value - ref) <= est.error


def test_j_lambda_rejects_higher_dimension():
    e = sets.HalfSpace(normal=(1.0, 0.0), offset=0.0)
    with pytest.raises(NotImplementedError):
        j_lambda(e, sets.FullSpace(), 0.5, dim=2)


# ---------------------------------------------------------------------------
# direct seminorm
# ---------------------------------------------------------------------------

def test_seminorm_indicator_is_twice_the_interaction():
    est = seminorm_sq_direct(HALF, 0.25)
    ref = interaction(HALF, sets.complement(HALF), 0.5)
    assert est.value == pytest.approx(2.0 * ref.value, rel=1e-12)


@pytest.mark.parametrize("s", [0.5, 0.6])
def test_seminorm_of_indicator_diverges_from_one_half(s):
    # [chi_E]_s^2 = 2 L_{2s}(E, E^c) is infinite once 2s >= 1
    with pytest.raises(ValueError):
        seminorm_sq_direct(HALF, s)


def test_seminorm_of_indicator_below_one_half():
    est = seminorm_sq_direct(HALF, 0.45)
    assert math.isfinite(est.value) and est.value > 0


@pytest.mark.parametrize("degree", [100, 10_000])
@pytest.mark.parametrize("s", [0.05, 0.25, 0.45])
def test_spectral_truncation_covers_the_halfline_seminorm(s, degree):
    # [chi_E]_s^2 = 2 L_{2s}(E, E^c); the truncated series falls short of
    # it, and the reported truncation must cover the shortfall
    ref = 2.0 * _halfline_s_perimeter_mp(2.0 * s) / (2.0 * s)
    sn = spectral_seminorm_sq(expand(HALF, degree), s)
    assert 0.0 < ref - sn.value <= sn.truncation


def test_seminorm_constant_function_vanishes():
    est = seminorm_sq_direct(lambda x: np.ones(x.shape[0]), 0.25)
    assert est.value == 0.0


def test_seminorm_linear_function_closed_form():
    # u(x) = x is the first Hermite mode: s [u]^2 = 2 Gamma(1 - s)
    s = 0.25
    est = seminorm_sq_direct(lambda x: x[:, 0], s, seed=0)
    expect = 2.0 * gamma_fn(1.0 - s) / s
    assert est.value == pytest.approx(expect, rel=0.02)
    assert abs(est.value - expect) < 4.0 * est.error + 0.01 * expect


def test_seminorm_scales_with_indicator_mass():
    # smaller sets have smaller seminorm: [chi_E]^2 ~ interaction with E^c
    small = sets.IntervalUnion(intervals=((1.0, 2.0),))
    assert (seminorm_sq_direct(small, 0.25).value
            < seminorm_sq_direct(HALF, 0.25).value)
