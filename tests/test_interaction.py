"""Interaction energies, perimeters and the direct seminorm."""

import importlib
import math

import mpmath as mp
import numpy as np
import pytest

from gfp import sets
from gfp.errors import OverlapError
from gfp.interaction import (
    _clip_intervals,
    _graded_cells,
    _mesh_nodes,
    _three_pieces,
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


@pytest.mark.parametrize("length", [0.0158, 0.05, 1.0])
def test_no_node_of_a_graded_cell_lands_on_its_graded_end(length):
    # both operands grade toward a shared end c; a node rounding onto c on
    # each side would make x = y in the pair grid.  The cells must still
    # tile each interval, and the innermost one stay tiny
    for c in np.linspace(-8.0, 8.0, 161):
        for lo_side in (True, False):
            a, b = (c, c + length) if lo_side else (c - length, c)
            cells = _graded_cells(a, b, lo_side, not lo_side)
            assert cells[0][0] == a and cells[-1][1] == b
            assert all(h == l2 for (_, h), (l2, _) in zip(cells, cells[1:]))
            assert min(h - l for l, h in cells) < 1e-9 * length
            for order in (8, 4):
                assert c not in _mesh_nodes([cells], order)[0]


def test_interaction_overlap_raises():
    # 1-D operands are checked by their intervals, N-D ones by the mass of
    # their intersection before the route is chosen
    for a, b in [(UNIT, sets.IntervalUnion(intervals=((0.5, 2.0),))),
                 (sets.Ball(center=(0.0, 0.0), radius=1.0),
                  sets.Box(lo=(0.5, -3.0), hi=(3.0, 3.0)))]:
        with pytest.raises(OverlapError):
            interaction(a, b, 0.5)


def test_interaction_empty_operand_is_zero():
    est = interaction(UNIT, sets.Empty(), 0.5, dim=1)
    assert est.value == 0.0 and est.error == 0.0


def test_interaction_s_domain():
    with pytest.raises(ValueError):
        interaction(UNIT, FAR, 1.5)


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
    # a box, not a half-plane: a half-plane and its complement take the
    # exact 1-D route
    a = sets.Box(lo=(-0.5, -1.0), hi=(1.0, 1.0))
    b = sets.Complement(a)
    est = interaction(a, b, 0.5, dim=2, seed=0)
    assert est.method == "monte-carlo"
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
    (2 artanh(x^2))^(-s/2) dx.  Its x^(-s) endpoint singularity defeats
    mp.quad as s -> 1; x = u^(1/(1-s)) turns it into a smooth integrand.
    """
    with mp.workdps(25):
        c, s = mp.mpf(c), mp.mpf(s)
        p = 1 / (1 - s)

        def integrand(u):
            x = u ** p
            return (p * u ** (p - 1) * mp.exp(-c * c * (1 + x * x) / 2)
                    / (1 + x * x) * (2 * mp.atanh(x * x)) ** (-s / 2))

        return float(2 / (mp.pi * s)
                     * mp.quad(integrand, [0, mp.mpf(0.5) ** (1 - s), 1]))


@pytest.mark.parametrize("s", [0.25, 0.5, 0.9, 0.99])
def test_far_halfline_oracle_matches_sheppard_at_the_origin(s):
    # at c = 0 both mpmath helpers compute P_s((0, inf); R) by different
    # integrals; near s = 1 only a smooth integrand keeps mp.quad honest
    assert _far_halfline_perimeter_mp(0.0, s) == pytest.approx(
        _halfline_s_perimeter_mp(s) / s, rel=1e-14)


@pytest.mark.parametrize("c", [8.5, 9.0])
def test_perimeter_of_a_far_halfline(c):
    # an interface beyond the default clipping radius 8.6 must still be
    # meshed; clipping it away leaves 0 +- 0
    e = sets.IntervalUnion(intervals=((c, math.inf),))
    p = perimeter(e, sets.FullSpace(), 0.5, dim=1).total
    ref = _far_halfline_perimeter_mp(c, 0.5)   # 1.97059173e-18 at c = 9
    assert abs(p.value - ref) <= p.error
    assert p.value == pytest.approx(ref, rel=1e-7)


def test_clipped_tail_mass_is_mirror_symmetric():
    # both clipped tails of a half-line: Phi(-R), which Phi(inf) - Phi(R)
    # rounds to 0.0
    radius = 8.6
    expect = 0.5 * math.erfc(radius / math.sqrt(2.0))
    _, upper = _clip_intervals([(0.3, math.inf)], radius)
    _, lower = _clip_intervals([(-math.inf, -0.3)], radius)
    assert upper == pytest.approx(expect, rel=1e-12)
    assert lower == pytest.approx(expect, rel=1e-12)


def test_perimeter_skips_empty_pieces_in_higher_dimension():
    # over R^2 two of the three pieces have an empty operand: they must
    # cost nothing, so the total holds the one real piece's draws
    p = perimeter(sets.Box(lo=(-0.5, -1.0), hi=(1.0, 1.0)), sets.FullSpace(),
                  0.5, dim=2).total
    assert p.samples_or_cells == 200_000
    assert p.method == "monte-carlo"
    assert p.value > 0


# a 2-D set that crosses its window: all three pieces are nonempty
WINDOWED_DISC = sets.Ball(center=(0.9, -0.3), radius=0.9)
WINDOW_BOX = sets.Box(lo=(-1.2, -1.5), hi=(1.4, 1.1))


def count_restricted_draws(monkeypatch):
    """The (set, stream) of every restricted draw gfp.interaction makes
    from now on, in order."""
    module = importlib.import_module("gfp.interaction")
    real, restricted = module.sample_gaussian, []

    def counting(n, seed=0, dim=1, restrict=None, stream=0):
        if restrict is not None:
            restricted.append((restrict, stream))
        return real(n, seed=seed, dim=dim, restrict=restrict, stream=stream)

    monkeypatch.setattr(module, "sample_gaussian", counting)
    return restricted


def test_windowed_perimeter_draws_each_piece_once(monkeypatch):
    # pieces 1-2 share the draws of E & Omega and pieces 1 and 3 those of
    # E^c & Omega: four restricted draws, not six, and each piece is the
    # interaction of its operands, bit for bit
    restricted = count_restricted_draws(monkeypatch)
    br = perimeter(WINDOWED_DISC, WINDOW_BOX, 0.4, seed=5, dim=2)
    assert len(restricted) == len(set(restricted)) == 4
    pieces = _three_pieces(WINDOWED_DISC, WINDOW_BOX)
    assert [br.local, br.nonlocal_out, br.nonlocal_in] == [
        interaction(pa, pb, 0.4, seed=5, dim=2) for pa, pb in pieces]


def test_windowed_perimeter_measures_no_piece_intersection(monkeypatch):
    # the pieces of the split are disjoint by construction, so the
    # perimeter never measures the intersection of two of them
    module = importlib.import_module("gfp.interaction")
    real, measured = module.gauss_measure, []

    def recording(expr, dim=None):
        measured.append(expr)
        return real(expr, dim=dim)

    monkeypatch.setattr(module, "gauss_measure", recording)
    perimeter(WINDOWED_DISC, WINDOW_BOX, 0.4, seed=5, dim=2)
    pieces = _three_pieces(WINDOWED_DISC, WINDOW_BOX)
    both = {sets.Intersection(pa, pb) for pa, pb in pieces}
    assert measured and not both & set(measured)


def test_halfplane_row_equals_the_halfline_row():
    # rotation invariance: over R^2 a half-plane has the perimeter of the
    # half-line at its offset, and the bar covers the mpmath value
    s, c = 0.64, 0.3
    plane = perimeter(sets.HalfSpace((0.6, -0.8), c), sets.FullSpace(), s,
                      dim=2).total
    line = perimeter(sets.HalfSpace((1.0,), c), sets.FullSpace(), s,
                     dim=1).total
    assert plane.value == pytest.approx(line.value, rel=1e-12)
    assert abs(plane.value - _far_halfline_perimeter_mp(c, s)) <= plane.error


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


def _agreed(compute, dps):
    """compute(dps) at dps and dps + 6 digits; they must agree to 1e-17."""
    lo, hi = compute(dps), compute(dps + 6)
    assert abs(lo - hi) <= 1e-17 * abs(hi), (lo, hi)
    return float(hi)


def _halfline_j_lambda_mp(c, s, dps=20):
    """J^lambda_s((c, inf); R) by mpmath.

    With r = y - x and x = c - r theta the pair integral is
    int_0^inf r^(-s) int_0^1 rho(c - r theta) rho(c + r (1 - theta))
    dtheta dr, rho(x) = e^(-x^2/4) / sqrt(2 pi).  The exponent is
    -(c + r (1/2 - theta))^2 / 2 - r^2 / 8, so the theta integral is
    h(r) = e^(-r^2/8) (Phi(c + r/2) - Phi(c - r/2)) / (r sqrt(2 pi)),
    bounded at 0.  r = v^(1/(1-s)) takes the r^(-s) singularity out:
    the integral is int_0^inf h(v^(1/(1-s))) dv / (1-s).  The value is
    even in c; at -|c| both Phi values sit in the lower tail, and the
    digits their difference cancels at small r are bought back.
    """
    def compute(digits):
        with mp.workdps(digits):
            a, p = -abs(mp.mpf(c)), 1 / (1 - mp.mpf(s))

            def h(v):
                r = v ** p
                with mp.extradps(max(0, int(-mp.log10(r))) + 5):
                    mass = mp.ncdf(a + r / 2) - mp.ncdf(a - r / 2)
                return mp.exp(-r * r / 8) * mass / (r * mp.sqrt(2 * mp.pi))

            return p * mp.quad(h, [0, 1, 2, 4, mp.inf])
    return _agreed(compute, dps)


@pytest.mark.parametrize("s", [0.6, 0.75])
def test_j_lambda_halfline_reference(s):
    c = 0.3
    ref = _halfline_j_lambda_mp(c, s)
    # the oracle at 50 digits
    assert ref == pytest.approx({0.6: 0.50450120939705122,
                                 0.75: 0.72113307957391822}[s], rel=1e-16)
    e = sets.IntervalUnion(intervals=((c, math.inf),))
    est = j_lambda(e, sets.FullSpace(), s, dim=1).total
    assert est.method == "u-quadrature-1d"
    assert 0 < est.error <= 1e-14 * ref
    assert abs(est.value - ref) <= est.error


def test_j_lambda_of_a_far_halfline():
    # at c = 12 the pair's Phi difference is ~1e-33 against values near 1
    c = 12.0
    e = sets.IntervalUnion(intervals=((c, math.inf),))
    est = j_lambda(e, sets.FullSpace(), 0.5, dim=1).total
    ref = _halfline_j_lambda_mp(c, 0.5, dps=40)   # 5.2114355302688e-19
    assert abs(est.value - ref) <= est.error
    assert est.value == pytest.approx(ref, rel=1e-14)


def _j_lambda_laplace_mp(shared, separated, s, dps=18):
    """J^lambda_s from signed Gaussian orthants in time, by mpmath.

    No reduction to u = y - x: |r|^(-1-s) = int q^(al-1) e^(-q r^2) dq
    / Gamma(al), al = (1+s)/2, and q = 1/(4(e^t - 1)) turn the pair
    integral over A x B into int_0^inf W(t) P(X in kA, Y in kB) dt, with
    W(t) = (4(e^t-1))^((1-s)/2) 2 sqrt(tanh(t/2)) e^t / (4(e^t-1)^2)
    / Gamma(al), (X, Y) standard with correlation rho = e^-t and endpoints
    scaled by k = sqrt((1 + rho)/2).  P is a signed sum of orthants
    G(h, k) = P(X < h, Y > k).  At a shared endpoint c (``shared``,
    (weight, c)), G(c, c) = 2 T(kc, sqrt(tanh(t/2))) by Owen's T integral;
    at h < k (``separated``, (weight, h, k)), G = Phi(h) Q(k) minus
    Plackett's integral of the bivariate density over [0, rho], skipped
    where it is below 10^-dps e^-20.  t = v^(2/(1-s)) bounds the integrand
    at 0; the tail past 2 (dps + 10) ln 10 / (1 + s) is below 10^-(dps+10).
    """
    def compute(digits):
        with mp.workdps(digits):
            sig = mp.mpf(s)
            gam = mp.gamma((1 + sig) / 2)

            def f(t):
                em1, a = mp.expm1(t), mp.sqrt(mp.tanh(t / 2))
                rho = mp.exp(-t)
                kappa = mp.sqrt((1 + rho) / 2)
                total = mp.mpf(0)
                for w, c in shared:
                    h = kappa * c
                    total += w * mp.quad(lambda x: mp.exp(-h * h * (1 + x * x) / 2)
                                         / (1 + x * x), [0, a],
                                         method="gauss-legendre") / mp.pi
                for w, h, k in separated:
                    if (k - h) ** 2 > 4 * t * (digits * mp.log(10) + 20):
                        continue
                    h, k = kappa * h, kappa * k
                    total += w * (mp.ncdf(h) * mp.ncdf(-k) - mp.quad(
                        lambda q: mp.exp(-(h * h - 2 * q * h * k + k * k)
                                         / (2 * (1 - q * q)))
                        / (2 * mp.pi * mp.sqrt(1 - q * q)), [0, rho]))
                return ((4 * em1) ** ((1 - sig) / 2) * 2 * a * (em1 + 1)
                        / (4 * em1 ** 2) / gam * total)

            p = 2 / (1 - sig)
            near = mp.quad(lambda v: f(v ** p) * p * v ** (p - 1) if v else 0,
                           [0, 1])
            t_end = 2 * (digits + 10) * mp.log(10) / (1 + sig)
            return near + mp.quad(lambda v: f(mp.exp(v)) * mp.exp(v),
                                  [0, mp.log(t_end)])
    return _agreed(compute, dps)


@pytest.mark.parametrize("omega, separated, s", [
    (sets.FullSpace(), [], 0.5),
    # minus L((-inf, -1.5), (1.5, inf)), the pair outside the window
    (sets.IntervalUnion(intervals=((-1.5, 1.5),)), [(-1, -1.5, 1.5)], 0.5),
    # Omega ends 1e-10 past E's endpoint, below u0: E & Omega is a touching
    # piece shorter than u0, and E \ Omega lies 1e-10 from E^c & Omega
    (sets.IntervalUnion(intervals=((-1.0, 0.3 + 1e-10),)),
     [(-1, -1, 0.3 + 1e-10)], 0.5),
    (sets.IntervalUnion(intervals=((-1.0, 0.3 + 1e-10),)),
     [(-1, -1, 0.3 + 1e-10)], 0.9)])
def test_j_lambda_matches_the_time_integral(omega, separated, s):
    # J = L(E, E^c) - L(E \ Omega, E^c \ Omega): the shared endpoint 0.3
    # and the pair outside the window
    e = sets.IntervalUnion(intervals=((0.3, math.inf),))
    ref = _j_lambda_laplace_mp([(1, 0.3)], separated, s)
    est = j_lambda(e, omega, s, dim=1).total
    assert 0 < est.error <= 1e-14 * ref
    assert abs(est.value - ref) <= est.error


@pytest.mark.parametrize("k", range(4, 11))
def test_j_lambda_pole_at_one(k):
    # (1-s) J^lambda_s -> e^(-c^2/2) / (2 pi) per shared endpoint c inside
    # Omega, at rate O(1-s)
    s, c = 1.0 - 2.0 ** -k, 0.3
    e = sets.IntervalUnion(intervals=((c, math.inf),))
    est = j_lambda(e, sets.FullSpace(), s, dim=1).total
    gap = (1.0 - s) * est.value / (math.exp(-0.5 * c * c) / (2.0 * math.pi)) - 1.0
    assert 0.5 * (1.0 - s) < gap < 1.0 - s


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
    assert est.value == pytest.approx(expect, rel=1e-12)
    assert abs(est.value - expect) <= est.error


@pytest.mark.parametrize("s", [0.1, 0.57, 0.6])
def test_seminorm_product_closed_form(s):
    # u(x) = x0 x1 is a second-order chaos in N = 2: [u]^2 = 2 2^s
    # Gamma(1 - s) / s; plain Monte Carlo has infinite variance here
    # for s >= 1/2
    est = seminorm_sq_direct(lambda x: x[:, 0] * x[:, 1], s, dim=2)
    expect = 2.0 * 2.0 ** s * gamma_fn(1.0 - s) / s
    assert est.value == pytest.approx(expect, rel=1e-12)
    assert abs(est.value - expect) <= est.error


def test_seminorm_of_a_callable_beyond_three_dimensions_is_refused():
    with pytest.raises(NotImplementedError):
        seminorm_sq_direct(lambda x: x[:, 0], 0.5, dim=4)


def test_seminorm_scales_with_indicator_mass():
    # smaller sets have smaller seminorm: [chi_E]^2 ~ interaction with E^c
    small = sets.IntervalUnion(intervals=((1.0, 2.0),))
    assert (seminorm_sq_direct(small, 0.25).value
            < seminorm_sq_direct(HALF, 0.25).value)
