"""Gaussian measure of sets, special functions, reproducible sampling.

gamma is the standard Gaussian probability measure on R^N.  Measures of
sets are computed in closed form whenever the expression reduces to
half-spaces, boxes, 1-D interval unions or centered balls.  In 2-D every
other expression over half-planes, boxes and discs takes a deterministic
slice rule with a reported quadrature bound; other sets in N >= 3 are
refused.  No measure draws a random number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import sets
from .errors import RestrictionMassError
from .sets import SetExpr

_SQRT2 = math.sqrt(2.0)


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


def _normalized_hermite_series(x, n_max: int, h0=1.0) -> np.ndarray:
    """h0 h_0(x)..h0 h_{n_max}(x), h_n = He_n / sqrt(n!), x scalar or array.

    The normalized recurrence h_{n+1} = (x h_n - sqrt(n) h_{n-1}) / sqrt(n+1)
    stays O(n^-1/4) at fixed x and forward stable.  It is linear, and
    h0 = e^(-x^2/4) gives the Hermite functions, O(1) at every x.
    """
    h = np.zeros((n_max + 1,) + np.shape(x))
    h[0] = h0
    for n in range(n_max):   # at n = 0, h[n - 1] is a row still 0
        h[n + 1] = (x * h[n] - math.sqrt(n) * h[n - 1]) / math.sqrt(n + 1)
    return h


def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the 1-D gamma: E f(X) ~ weights @ f(nodes).

    Golub-Welsch nodes (eigenvalues of the Jacobi matrix, off-diagonal
    sqrt(k)) and Christoffel weights 1 / sum_{k<n} h_k^2, taken as
    e^(-x^2/2) / sum psi_k^2 over the Hermite functions psi_k (0 where
    e^(-x^2/2) underflows).  Unlike squared eigenvector components they are
    accurate relative to themselves, so h_k times a weight stays right
    where h_k is huge.  Exact for polynomials of degree < 2n.
    """
    off = np.sqrt(np.arange(1.0, n))
    nodes = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    with np.errstate(under="ignore"):
        psi = _normalized_hermite_series(nodes, n - 1, np.exp(-0.25 * nodes ** 2))
        top = np.exp(-0.5 * nodes ** 2)
        return nodes, np.divide(top, np.einsum("ij,ij->j", psi, psi),
                                out=np.zeros(n), where=top > 0)


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
    """Measure value, a bound on its error (0 in closed form), method tag."""

    value: float
    error: float
    method: str  # "closed-form" | "slice-quadrature"


# ---------------------------------------------------------------------------
# measures: closed forms, 2-D slices
# ---------------------------------------------------------------------------

def _closed_form(expr: SetExpr, dim: int) -> float | None:
    """Closed-form gamma measure, or None when no reduction applies."""
    if dim == 1:
        total = sum((std_normal_cdf(b) - std_normal_cdf(a)
                     for a, b in sets.to_intervals(expr)), 0.0)
        return min(max(total, 0.0), 1.0)
    if isinstance(expr, sets.FullSpace):
        return 1.0
    if isinstance(expr, sets.Empty):
        return 0.0
    if isinstance(expr, sets.HalfSpace):
        # x.n is standard normal for |n| = 1
        return std_normal_cdf(expr.offset)
    if isinstance(expr, sets.Box):
        return math.prod(std_normal_cdf(hi) - std_normal_cdf(lo)
                         for lo, hi in zip(expr.lo, expr.hi))
    if isinstance(expr, sets.Ball) and not any(expr.center):
        # |X|^2 is chi-square with N degrees of freedom
        return _chi2_ball_mass(dim, expr.radius)
    if isinstance(expr, sets.Complement):
        inner = _closed_form(expr.inner, dim)
        return None if inner is None else 1.0 - inner
    return None


_R_SLICE = 10.0  # gamma mass beyond |x_i| = 10 is below 1e-22
_ERFC = np.frompyfunc(math.erfc, 1, 1)


# Gauss-Legendre in theta on (0, pi), 24 nodes and 16 for the check, for
# x = m - h cos(theta) on a panel (m - h, m + h): offsets -cos(theta) and
# weights w sin(theta) per unit h; a disc extent's square root turns smooth.
_SLICE_RULES = [(-np.cos(t), 0.5 * math.pi * w * np.sin(t)) for t, w in (
    (0.5 * math.pi * (1.0 + z), w) for z, w in map(leggauss, (24, 16)))]


def _primitives(expr: SetExpr) -> list:
    if isinstance(expr, (sets.HalfSpace, sets.Box, sets.Ball)):
        return [expr]
    return [p for part in ("inner", "left", "right") if hasattr(expr, part)
            for p in _primitives(getattr(expr, part))]


def _panel_cuts(lines, circles) -> np.ndarray:
    """x1 that split the slice integral into smooth, slow panels: unit
    steps, disc extents, pairwise boundary intersections (two circles meet
    on their radical line) and each line's crossings of y = -10, ..., 10,
    so that no breakpoint moves by more than 1 across a panel.  Toward
    each extent, from inside, cuts are graded geometrically down to the
    nearest other cut: no panel lies closer to the square root there than
    its own width."""
    ends = [(c[0] - s * r, s, r) for c, r in circles for s in (1.0, -1.0)]
    cuts = list(np.arange(-_R_SLICE, _R_SLICE + 1.0)) + [e for e, _, _ in ends]
    levels = [((0.0, 1.0), y) for y in cuts[:21]]
    for i, (n, o) in enumerate(lines):
        for m, p in levels + lines[i + 1:]:
            if n[0] * m[1] != n[1] * m[0]:
                cuts.append((o * m[1] - p * n[1]) / (n[0] * m[1] - n[1] * m[0]))
    chords = [(line, circle) for line in lines for circle in circles]
    for i, (c, r) in enumerate(circles):
        for d, q in circles[i + 1:]:
            v = np.subtract(d, c)
            if gap := math.hypot(*v):
                chords.append(((v / gap, (r * r - q * q + np.dot(d, d)
                                          - np.dot(c, c)) / (2.0 * gap)), (c, r)))
    for (n, o), (c, r) in chords:
        dist = o - n[0] * c[0] - n[1] * c[1]   # centre to line, along n
        if abs(dist) <= r:
            half = math.sqrt(r * r - dist * dist)
            cuts += [c[0] + dist * n[0] + side * half * n[1] for side in (-1, 1)]
    cuts, size = np.unique(np.clip(cuts, -_R_SLICE, _R_SLICE)), 0
    while size != cuts.size:   # until no grading lands near another extent
        size = cuts.size
        for end, side, r in ends:
            away = (cuts - end) * side
            gap = max(np.min(away, where=away > 0, initial=r), 1e-15 * r)
            grade = end + side * gap * 2.0 ** np.arange(
                1, math.ceil(math.log2(r / gap)))
            cuts = np.unique(np.clip(np.append(cuts, grade), -_R_SLICE, _R_SLICE))
    return cuts


def _slice_measure(expr: SetExpr) -> MeasureEstimate:
    """gamma(A) = int phi(x1) gamma_1(A_x1) dx1 in 2-D, A_x1 the slice at x1.

    The primitives' boundaries are lines (normal, offset) and circles
    (center, radius).  At each node x1 their breakpoints, clipped to the
    window [-10, 10]^2, split the y-line into segments, and one contains()
    call at the midpoints decides which are inside.  Each panel between
    _panel_cuts takes the 24-node rule; the error adds the 16-node rule's
    difference and rounding: 4 eps per Phi value and 16 eps for the rest.
    """
    prims = _primitives(expr)
    lines = [(p.normal, p.offset) for p in prims if isinstance(p, sets.HalfSpace)]
    lines += [((1.0 - k, float(k)), v) for p in prims if isinstance(p, sets.Box)
              for k in (0, 1) for v in (p.lo[k], p.hi[k])]
    circles = [(p.center, p.radius) for p in prims if isinstance(p, sets.Ball)]
    edges = _panel_cuts(lines, circles)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    x, w = (np.concatenate(v) for v in zip(*(
        ((mid[:, None] + half[:, None] * u).ravel(), np.outer(half, wt).ravel())
        for u, wt in _SLICE_RULES)))
    cols = [np.full_like(x, y) for y in (-_R_SLICE, _R_SLICE)]
    cols += [(o - n[0] * x) / n[1] for n, o in lines if n[1]]
    for c, r in circles:
        dy = np.sqrt(np.maximum(r * r - (x - c[0]) ** 2, 0.0))
        cols += [c[1] - dy, c[1] + dy]
    ys = np.sort(np.clip(np.column_stack(cols), -_R_SLICE, _R_SLICE), axis=1)
    inside = sets.contains(expr, np.stack(np.broadcast_arrays(
        x[:, None], 0.5 * (ys[:, 1:] + ys[:, :-1])), axis=-1))
    cdf = 0.5 * _ERFC(ys * (-1.0 / _SQRT2)).astype(float)
    f = w * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * (
        np.diff(cdf, axis=1) * inside).sum(axis=1)
    split = mid.size * _SLICE_RULES[0][0].size
    value, check = float(f[:split].sum()), float(f[split:].sum())
    return MeasureEstimate(value, abs(value - check) + (4.0 * ys.shape[1] + 16.0)
                           * 2.0 ** -52, "slice-quadrature")


def gauss_measure(expr: SetExpr, dim: int | None = None) -> MeasureEstimate:
    """Gaussian measure of a set expression.

    Closed form when the expression reduces to interval unions (N=1),
    half-spaces, boxes or centered balls; in 2-D every other expression
    takes _slice_measure.  Other sets in N >= 3 raise NotImplementedError.
    """
    # FullSpace/Empty combinations: measure is dimension-free
    dim = dim or sets.dimension(expr) or 1
    cf = _closed_form(expr, dim)
    if cf is not None:
        return MeasureEstimate(cf, 0.0, "closed-form")
    if dim != 2:
        raise NotImplementedError(f"no Gaussian measure of this set in N = {dim}"
                                  ": beyond 2-D only closed forms")
    return _slice_measure(expr)


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
    mass = 1.0 if restrict is None else gauss_measure(restrict, dim=dim).value
    if mass < 1e-6:
        raise RestrictionMassError(f"restriction mass {mass:.2e} < 1e-6; "
                                   "rejection sampling is not viable")
    rng, out, filled = _rng(seed, stream), np.empty((n, dim)), 0
    while filled < n:  # the normal stream does not depend on the batch size
        draw = rng.standard_normal((65536, dim))
        if restrict is not None:
            draw = draw[sets.contains(restrict, draw)]
        take = min(n - filled, draw.shape[0])
        out[filled:filled + take] = draw[:take]
        filled += take
    return out
