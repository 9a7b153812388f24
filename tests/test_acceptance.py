"""Acceptance gate: one test (one pass/fail line under -v) per criterion.

Closed-form and frozen-oracle checks at desk scale; every numbered
criterion states its tolerance inline.  The half-space sweep is computed
once (module fixture) and shared between the accuracy criterion and the
determinism criterion.
"""

import math
import time

import numpy as np
import pytest

from gfp import sets
from gfp.asymptotics import (
    additivity_defect,
    divergent_example,
    interaction_lower_bound,
    mu_limit,
    sweep,
)
from gfp.interaction import interaction, j_lambda
from gfp.measure import gamma_fn, gauss_measure
from gfp.mehler import (
    kernel_K,
    kernel_lower_bound,
    kernel_upper_bound,
    semigroup_mass,
)
from gfp.spectral import expand, spectral_seminorm_sq
from gfp.interaction import seminorm_sq_direct

HALF = sets.IntervalUnion(intervals=((0.0, math.inf),))
WINDOW = sets.IntervalUnion(intervals=((-1.0, 1.0),))
S_GRID = [2.0 ** -k for k in range(1, 9)]

# 50-case oracle grid for the subordinated kernel, N=1: (sigma, x, r, K)
# frozen from an independent 30-digit adaptive quadrature of
# int_0^T M_t(x, x + r) t^(-sigma/2 - 1) dt at T = 40 plus the exact
# power tail (2/sigma) T^(-sigma/2); for t >= T the Mehler factor is 1
# to ~e^-40 (|x|^2+|y|^2), far below the grid's storage precision.
# (Naive quadrature over [T, inf) silently loses ~2% at sigma = 0.1.)
KERNEL_ORACLE = [
    (0.1, 0.0, 0.05, 85.63891185722703),
    (0.1, 0.0, 0.2, 33.90931689052607),
    (0.1, 0.0, 1.0, 21.904325213288168),
    (0.1, 0.0, 2.0, 20.519160905357797),
    (0.1, 0.0, 5.0, 19.624960747238884),
    (0.1, 1.0, 0.05, 130.4296973338573),
    (0.1, 1.0, 0.2, 44.79662522932064),
    (0.1, 1.0, 1.0, 24.656202415074624),
    (0.1, 1.0, 2.0, 22.256683396177994),
    (0.1, 1.0, 5.0, 20.691908163205074),
    (0.3, 0.0, 0.05, 125.05130136429247),
    (0.3, 0.0, 0.2, 26.08317623182531),
    (0.3, 0.0, 1.0, 8.787863712523986),
    (0.3, 0.0, 2.0, 7.219740322366439),
    (0.3, 0.0, 5.0, 6.305069855537438),
    (0.3, 1.0, 0.05, 206.10085693741578),
    (0.3, 1.0, 0.2, 41.36739632530065),
    (0.3, 1.0, 1.0, 11.823625912498505),
    (0.3, 1.0, 2.0, 8.999272700513309),
    (0.3, 1.0, 5.0, 7.324595898810508),
    (0.5, 0.0, 0.05, 223.58487847290533),
    (0.5, 0.0, 0.2, 31.640882664580555),
    (0.5, 0.0, 1.0, 6.374475737853611),
    (0.5, 0.0, 2.0, 4.589622612922386),
    (0.5, 0.0, 5.0, 3.6511903515145203),
    (0.5, 1.0, 0.05, 374.2855491972172),
    (0.5, 1.0, 0.2, 53.522347875200595),
    (0.5, 1.0, 1.0, 9.749056465422388),
    (0.5, 1.0, 2.0, 6.4195930579698794),
    (0.5, 1.0, 5.0, 4.62706615496253),
    (0.7, 0.0, 0.05, 419.99730712791563),
    (0.7, 0.0, 0.2, 42.932724579325686),
    (0.7, 0.0, 1.0, 5.52870042446537),
    (0.7, 0.0, 2.0, 3.4862551311489693),
    (0.7, 0.0, 5.0, 2.520508782418534),
    (0.7, 1.0, 0.05, 706.7765122139431),
    (0.7, 1.0, 0.2, 74.82637494137745),
    (0.7, 1.0, 1.0, 9.30819338349462),
    (0.7, 1.0, 2.0, 5.375684291581879),
    (0.7, 1.0, 5.0, 3.456178603249656),
    (0.9, 0.0, 0.05, 811.0075922882193),
    (0.9, 0.0, 0.2, 61.31691287899341),
    (0.9, 0.0, 1.0, 5.243758019112427),
    (0.9, 0.0, 2.0, 2.8941069860742963),
    (0.9, 0.0, 5.0, 1.8971925643896685),
    (0.9, 1.0, 0.05, 1367.7087012390634),
    (0.9, 1.0, 0.2, 108.57080154634323),
    (0.9, 1.0, 1.0, 9.508066864954808),
    (0.9, 1.0, 2.0, 4.852724860213671),
    (0.9, 1.0, 5.0, 2.79580739922559),
]


@pytest.fixture(scope="module")
def halfspace_sweep():
    t0 = time.monotonic()
    result = sweep(HALF, sets.FullSpace(), S_GRID, dim=1, seed=0)
    return result, time.monotonic() - t0


def test_criterion_01_main_theorem_halfspace(halfspace_sweep):
    """Half-space sweep extrapolates to 1/2 within 2%, rows accurate to
    0.5%, single-threaded runtime under 5 minutes."""
    result, elapsed = halfspace_sweep
    assert abs(result.extrapolated_limit - 0.5) <= 0.02 * 0.5, (
        f"extrapolated {result.extrapolated_limit}")
    assert np.all(result.errors <= 0.005 * np.abs(result.values)), (
        f"row errors {result.errors / result.values}")
    assert elapsed <= 300.0, f"runtime {elapsed:.1f}s"


def test_criterion_02_main_theorem_bounded_window():
    """Bounded-window sweep extrapolates within 2% of the closed-form
    mu ~ 0.44966 in under 10 minutes."""
    target = mu_limit(HALF, WINDOW).mu
    assert target == pytest.approx(0.44966, abs=5e-5)
    t0 = time.monotonic()
    result = sweep(HALF, WINDOW, S_GRID, dim=1, seed=0)
    elapsed = time.monotonic() - t0
    assert abs(result.extrapolated_limit - target) <= 0.02 * target, (
        f"extrapolated {result.extrapolated_limit} target {target}")
    assert elapsed <= 600.0, f"runtime {elapsed:.1f}s"


def test_criterion_03_mazya_shaposhnikova_spectral():
    """Half-line indicator to degree 1e5: Parseval mass matches 1/2 within
    5e-3 and s times the seminorm at s = 2^-10 is within 1.5% of 1/2."""
    exp = expand(HALF, 10 ** 5)
    parseval = 2.0 * float(exp.coeffs[1:] @ exp.coeffs[1:])
    assert abs(parseval - 0.5) <= 5e-3, f"2 sum c_n^2 = {parseval}"
    s = 2.0 ** -10
    val = s * spectral_seminorm_sq(exp, s).value
    assert abs(val - 0.5) <= 0.015 * 0.5, f"s*[u]^2 = {val}"


def test_criterion_04_spectral_vs_direct_seminorm():
    """Direct double-integral seminorm of the first Hermite mode at
    s = 1/4 within 1e-12 relative of 2 Gamma(3/4) / s."""
    s = 0.25
    est = seminorm_sq_direct(lambda x: x[:, 0], s, seed=0)
    expect = 2.0 * gamma_fn(0.75) / s
    assert abs(est.value - expect) <= 1e-12 * expect, (
        f"direct {est.value} expect {expect}")


def test_criterion_05_kernel_bound_suite():
    """Lower/upper kernel bounds hold at 1e3 random pairs with zero
    violations; 50-case frozen oracle grid agrees to 1e-6 relative."""
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(1000):
        sigma = float(rng.choice([0.1, 0.5, 0.9]))
        n = int(rng.choice([1, 2]))
        x = rng.normal(size=n)
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)
        y = x + rng.uniform(0.05, 5.0) * d
        kv = kernel_K(sigma, x, y)
        if kernel_lower_bound(sigma, x, y) > kv.value + kv.error_bound:
            violations += 1
        if kv.value - kv.error_bound > kernel_upper_bound(sigma, x, y):
            violations += 1
    assert violations == 0, f"{violations} bound violations"
    worst = max(
        abs(kernel_K(sigma, (x0,), (x0 + r,)).value - ref) / ref
        for sigma, x0, r, ref in KERNEL_ORACLE
    )
    assert worst <= 1e-6, f"worst oracle deviation {worst:.2e}"


def test_criterion_06_stochastic_completeness():
    """The Mehler semigroup preserves the Gaussian measure to 1e-6 at
    t in {0.1, 1, 10} and N in {1, 2}."""
    for t in (0.1, 1.0, 10.0):
        for x in ((0.4,), (0.4, -1.1)):
            mass = semigroup_mass(t, x)
            assert abs(mass - 1.0) <= 1e-6, f"t={t} N={len(x)} mass={mass}"


def test_criterion_07_non_additivity_identity():
    """Closed-form defect equals -4 g(A) g(B) to 1e-12 on 20 disjoint
    interval pairs; the uniform interaction floor holds at
    s in {0.5, 0.1, 0.01} on 10 pairs."""
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(20):
        lo1 = rng.uniform(-3, 0)
        a = (lo1, lo1 + rng.uniform(0.2, 1.0))
        lo2 = a[1] + rng.uniform(0.3, 1.0)
        b = (lo2, lo2 + rng.uniform(0.2, 1.0))
        pairs.append((sets.IntervalUnion(intervals=(a,)),
                      sets.IntervalUnion(intervals=(b,))))
    for a, b in pairs:
        defect, _ = additivity_defect(a, b)
        expect = -4.0 * gauss_measure(a).value * gauss_measure(b).value
        assert abs(defect - expect) <= 1e-12, f"defect {defect} vs {expect}"
    for a, b in pairs[:10]:
        floor = interaction_lower_bound(a, b)
        for s in (0.5, 0.1, 0.01):
            est = interaction(a, b, s)
            assert s * est.value >= floor - s * est.error, (
                f"s={s} sL={s * est.value} < floor={floor}")


def test_criterion_08_j_lambda_triviality():
    """s J^lambda_s rows strictly decrease after the second row and the
    final row is at most 5% of the first."""
    rows = [s * j_lambda(HALF, sets.FullSpace(), s, dim=1).total.value
            for s in S_GRID]
    assert all(b < a for a, b in zip(rows[1:], rows[2:])), f"rows {rows}"
    assert rows[-1] <= 0.05 * rows[0], (
        f"final/first = {rows[-1] / rows[0]:.4f}")


def test_criterion_09_divergent_example():
    """Divergence certificate: the analytic lower-bound series at s = 1/2
    grows by at least 3x from 1e2 to 1e4 interval pairs."""
    small = divergent_example(10 ** 2, 0.5)
    large = divergent_example(10 ** 4, 0.5)
    ratio = large.lower_bound / small.lower_bound
    assert ratio >= 3.0, f"growth factor {ratio:.2f}"


def test_criterion_10_determinism(halfspace_sweep):
    """A re-run of the half-space sweep with the identical configuration
    reproduces the CSV byte for byte."""
    result, _ = halfspace_sweep
    rerun = sweep(HALF, sets.FullSpace(), S_GRID, dim=1, seed=0)
    assert rerun.to_csv().encode() == result.to_csv().encode()
