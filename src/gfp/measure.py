"""Gaussian measure of sets, special functions, reproducible sampling.

gamma is the standard Gaussian probability measure on R^N.  Measures of
sets are computed in closed form whenever the expression reduces to
half-spaces, boxes, 1-D interval unions or centered balls, and by seeded
Monte Carlo otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sets
from .errors import RestrictionMassError
from .sets import SetExpr

_SQRT2 = math.sqrt(2.0)
_COUNT_BLOCK = 65536  # draws per block of a Monte Carlo measure


def std_normal_cdf(t: float) -> float:
    """Standard normal CDF, absolute accuracy ~1e-16 via erfc."""
    return 0.5 * math.erfc(-t / _SQRT2)


def std_normal_pdf(t: float) -> float:
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def _chi2_ball_mass(n_dim: int, radius: float) -> float:
    """P(chi^2_N <= r^2), the regularised incomplete gamma P(N/2, r^2/2).

    Positive terms only.  For y = r^2/2 < a + 1 (a = N/2) the series
    e^-y sum_k y^(a+k) / Gamma(a+k+1) keeps full relative accuracy for
    small balls; beyond, 1 - Q with the closed upper tail
    Q(a, y) = Q(a0, y) + e^-y sum_{a0 <= b < a} y^b / Gamma(b+1),
    Q(1/2, y) = erfc(sqrt(y)) and Q(0, y) = 0, so P reaches 1 without
    underflow.
    """
    a, y = n_dim / 2.0, radius * radius / 2.0
    if y == 0.0:
        return 0.0
    if y < a + 1.0:
        term = math.exp(a * math.log(y) - y - math.lgamma(a + 1.0))
        total, k = term, 1
        while term > 1e-17 * total:
            term *= y / (a + k)
            total += term
            k += 1
        return total
    b = a % 1.0  # 1/2 for odd N, 0 for even N
    q = math.erfc(math.sqrt(y)) if b else 0.0
    while b < a:
        q += math.exp(b * math.log(y) - y - math.lgamma(b + 1.0))
        b += 1.0
    return 1.0 - q


def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the 1-D gamma: E f(X) ~ weights @ f(nodes).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    the probabilists' Hermite recurrence (zero diagonal, off-diagonal
    sqrt(k)), and each weight is the squared first component of its
    unit eigenvector, since gamma has mass 1.  Exact for polynomials of
    degree < 2n; stable at every n, unlike the root-finding rules.
    """
    off = np.sqrt(np.arange(1.0, n))
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, vecs[0] ** 2


def _tensor_rule(n: int, n_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point rule of _gauss_rule in each of n_dim coordinates:
    points of shape (n^n_dim, n_dim) and their weights."""
    nodes, weights = _gauss_rule(n)
    grids = np.meshgrid(*([nodes] * n_dim), indexing="ij")
    prod = np.prod(np.meshgrid(*([weights] * n_dim), indexing="ij"), axis=0)
    return np.stack([g.ravel() for g in grids], axis=-1), prod.ravel()


def gamma_fn(z: float) -> float:
    """Euler Gamma on the positive half-line (relative error ~1e-15).

    Negative arguments are rejected: the one in-scope negative use,
    |Gamma(-s)|, is always reached through Gamma(1-s)/s.
    """
    if not z > 0:
        raise ValueError(f"gamma_fn requires z > 0, got {z}")
    return math.gamma(z)


def abs_gamma_neg(s: float) -> float:
    """|Gamma(-s)| = Gamma(1-s)/s for s in (0,1)."""
    if not 0 < s < 1:
        raise ValueError(f"s must lie in (0,1), got {s}")
    return gamma_fn(1.0 - s) / s


@dataclass(frozen=True)
class MeasureEstimate:
    """Measure value with method tag; std_error is 0 in closed form."""

    value: float
    std_error: float
    method: str  # "closed-form" | "monte-carlo"


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _interval_mass(ivs: list[tuple[float, float]]) -> float:
    total = sum((std_normal_cdf(b) - std_normal_cdf(a) for a, b in ivs), 0.0)
    return min(max(total, 0.0), 1.0)


def _closed_form(expr: SetExpr, dim: int) -> float | None:
    """Closed-form gamma measure, or None when no reduction applies."""
    if dim == 1:
        return _interval_mass(sets.to_intervals(expr))
    if isinstance(expr, sets.FullSpace):
        return 1.0
    if isinstance(expr, sets.Empty):
        return 0.0
    if isinstance(expr, sets.HalfSpace):
        # x.n is standard normal for |n| = 1
        return std_normal_cdf(expr.offset)
    if isinstance(expr, sets.Box):
        m = 1.0
        for lo, hi in zip(expr.lo, expr.hi):
            m *= std_normal_cdf(hi) - std_normal_cdf(lo)
        return m
    if isinstance(expr, sets.Ball):
        if any(c != 0.0 for c in expr.center):
            return None  # off-center: no elementary form, route to Monte Carlo
        # |X|^2 is chi-square with N degrees of freedom
        return _chi2_ball_mass(dim, expr.radius)
    if isinstance(expr, sets.Complement):
        inner = _closed_form(expr.inner, dim)
        return None if inner is None else 1.0 - inner
    if isinstance(expr, sets.Intersection):
        boxed = _as_box(expr)
        if boxed is not None:
            return _closed_form(boxed, dim)
    return None


def _as_box(expr: SetExpr) -> SetExpr | None:
    """Intersections of boxes collapse to a box (or Empty)."""
    if isinstance(expr, sets.Box):
        return expr
    if isinstance(expr, sets.Intersection):
        left, right = _as_box(expr.left), _as_box(expr.right)
        if isinstance(left, sets.Empty) or isinstance(right, sets.Empty):
            return sets.Empty()
        if isinstance(left, sets.Box) and isinstance(right, sets.Box):
            lo = tuple(max(a, b) for a, b in zip(left.lo, right.lo))
            hi = tuple(min(a, b) for a, b in zip(left.hi, right.hi))
            if all(a < b for a, b in zip(lo, hi)):
                return sets.Box(lo, hi)
            return sets.Empty()
    return None


def gauss_measure(expr: SetExpr, dim: int | None = None, n_mc: int = 10 ** 6,
                  seed: int = 0) -> MeasureEstimate:
    """Gaussian measure of a set expression.

    Closed form when the expression reduces to interval unions (N=1),
    half-spaces, boxes or centered balls; otherwise Monte Carlo over n_mc
    seeded draws with the binomial standard error reported.
    """
    if dim is None:
        dim = sets.dimension(expr)
        if dim is None:
            # FullSpace/Empty combinations: measure is dimension-free
            dim = 1
    cf = _closed_form(expr, dim)
    if cf is not None:
        return MeasureEstimate(cf, 0.0, "closed-form")
    # sample_gaussian's draws, counted block by block instead of held at once
    rng = _rng(seed, 0)
    hits = 0
    for lo in range(0, n_mc, _COUNT_BLOCK):
        pts = rng.standard_normal((min(_COUNT_BLOCK, n_mc - lo), dim))
        hits += int(np.count_nonzero(sets.contains(expr, pts)))
    p = hits / n_mc
    se = math.sqrt(max(p * (1.0 - p), 1.0 / n_mc) / n_mc)
    return MeasureEstimate(p, se, "monte-carlo")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _rng(seed: int, stream: int) -> np.random.Generator:
    # counter-based generator: parallel streams reproducible from (seed, stream)
    return np.random.Generator(np.random.Philox(key=(seed, stream)))


def sample_gaussian(n: int, seed: int = 0, dim: int = 1,
                    restrict: SetExpr | None = None,
                    stream: int = 0) -> np.ndarray:
    """n i.i.d. standard Gaussian points in R^dim, shape (n, dim).

    With ``restrict`` given, draws are conditioned on the set by rejection;
    the proposal stream is identical to the unrestricted one, so
    restrict=FullSpace reproduces the unrestricted output bit for bit.
    Rejection is refused when the restriction mass is below 1e-6.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if restrict is not None and not isinstance(restrict, sets.FullSpace):
        mass = gauss_measure(restrict, dim=dim, n_mc=10 ** 5, seed=seed ^ 0x5EED)
        if mass.value < 1e-6:
            raise RestrictionMassError(
                f"restriction mass ~{mass.value:.2e} < 1e-6; "
                "rejection sampling not viable, use importance sampling"
            )
    rng = _rng(seed, stream)
    out = np.empty((n, dim), dtype=float)
    filled = 0
    while filled < n:  # the normal stream does not depend on the batch size
        draw = rng.standard_normal((_COUNT_BLOCK, dim))
        if restrict is not None:
            draw = draw[sets.contains(restrict, draw)]
        take = min(n - filled, draw.shape[0])
        out[filled:filled + take] = draw[:take]
        filled += take
    return out
