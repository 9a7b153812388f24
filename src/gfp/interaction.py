"""Spatial integration of singular-kernel interaction energies.

Computes the interaction L_s(A,B) = int_A dgamma int_B K_s dgamma, the
three-term fractional perimeter of a set inside a window, the weighted
Euclidean-kernel competitor functional, and the direct double-integral
Sobolev seminorm.  Perimeter, J^lambda and the s-sweep share one route:
_perimeters splits E into three disjoint operand pairs, and
_interactions evaluates a pair at a whole list of s.  The public
interaction alone checks its operands for overlap.

In one dimension, and for a half-space against its complement in any,
both operands reduce to interval unions and a tensor Gauss-Legendre rule
on a mesh graded toward every near-contact endpoint integrates the
|x-y|^(-1-s) singularity to near machine precision, every s in one pass.
Other N-D operands take _N_PAIRS Monte Carlo pairs, drawn once for every
s: x from the conditioned Gaussian on A, y from an equal mixture of the
conditioned Gaussian on B and a shell around x, which keeps the variance
finite near the diagonal.  Callable seminorms use tensor Gauss-Hermite in
space and log-time panels in time.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import sets
from .errors import OverlapError
from .measure import (_SQRT2, _rng, _tensor_rule, gamma_fn, gauss_measure,
                      sample_gaussian, std_normal_cdf)
from .mehler import (_BLOCK, _TAIL_TIME, kernel_batch, kernel_sums,
                     kernel_upper_bound_radial, log_time_panels)
from .sets import SetExpr

R_TRUNC_GAUSS = 8.6    # gamma mass beyond ~ 4e-18
R_TRUNC_LAMBDA = 12.2  # lambda mass beyond ~ 6e-18
_GRADE_LEVELS = 40
_H_MAX = 0.25
_GL_ORDER = 8
_SHELL_R_LO = 1e-6
_N_PAIRS = 200_000  # Monte Carlo pairs per estimate
_HERMITE_ORDERS = {1: (32, 24), 2: (8, 6), 3: (6, 4)}  # rule, check; N = 1-3
_T0 = 1e-12  # callable seminorms: g(t) is linear in t below it


@dataclass(frozen=True)
class InteractionEstimate:
    value: float
    error: float
    method: str  # "graded-quadrature-1d" | "monte-carlo" | "gauss-hermite"
    samples_or_cells: int

    def __add__(self, other: "InteractionEstimate") -> "InteractionEstimate":
        # the pieces of one perimeter share a dimension, hence a route; an
        # operand that did no work (an empty piece) leaves the tag alone
        if not other.samples_or_cells:
            return self
        if not self.samples_or_cells:
            return other
        return InteractionEstimate(
            self.value + other.value, self.error + other.error,
            self.method, self.samples_or_cells + other.samples_or_cells,
        )


ZERO_ESTIMATE = InteractionEstimate(0.0, 0.0, "graded-quadrature-1d", 0)


@dataclass(frozen=True)
class PerimeterBreakdown:
    local: InteractionEstimate
    nonlocal_out: InteractionEstimate  # E inside the window vs E^c outside
    nonlocal_in: InteractionEstimate   # E outside the window vs E^c inside

    @property
    def total(self) -> InteractionEstimate:
        return self.local + self.nonlocal_out + self.nonlocal_in


# ---------------------------------------------------------------------------
# graded 1-D meshes
# ---------------------------------------------------------------------------

def _trunc_radius(base, scale, *ivs_lists):
    """Clipping radius: ``base``, pushed out to 3 standard deviations
    (``scale``) of the measure past the farthest finite endpoint, so that
    every interface lies well inside the mesh."""
    ends = [abs(p) for ivs in ivs_lists for iv in ivs for p in iv
            if math.isfinite(p)]
    return max([base] + [p + 3.0 * scale for p in ends])


def _clip_intervals(ivs, r_trunc, scale):
    """Intervals clipped to [-r, r], and the mass they lose under the
    density e^(-x^2/(2 scale^2))/sqrt(2 pi): gamma for scale 1, lambda
    for scale sqrt(2)."""
    def cdf(x):
        return scale * std_normal_cdf(x / scale)

    out = []
    tail_mass = 0.0
    for a, b in ivs:
        ca, cb = max(a, -r_trunc), min(b, r_trunc)
        if ca < cb:
            out.append((ca, cb))
        if a < -r_trunc:
            tail_mass += cdf(min(b, -r_trunc)) - cdf(a)
        if b > r_trunc:  # mirrored: cdf(b) - cdf(r) is 0.0 in float64
            tail_mass += cdf(-max(a, r_trunc)) - cdf(-b)
    return out, tail_mass


def _point_set_distance(p: float, ivs) -> float:
    d = math.inf
    for a, b in ivs:
        if a <= p <= b:
            return 0.0
        d = min(d, abs(p - a), abs(p - b))
    return d


def _graded_cells(a: float, b: float, grade_lo: bool, grade_hi: bool):
    """Cell partition of (a,b), geometrically refined toward graded ends."""
    if grade_lo and grade_hi:
        m = 0.5 * (a + b)
        return _graded_cells(a, m, True, False) + _graded_cells(m, b, False, True)
    pts = [a, b]
    if grade_lo or grade_hi:
        # breakpoints from the graded end outward, with ratio-2 refinement
        end, sign = (a, 1.0) if grade_lo else (b, -1.0)
        pts = [end] + [end + sign * (b - a) * 2.0 ** -k
                       for k in range(_GRADE_LEVELS, -1, -1)]
        # a Gauss node on the graded end would meet the other operand's
        # node there (x = y): merge the innermost cell outward until none
        # of its nodes, placed as _mesh_nodes places them, rounds onto it
        while np.any(_mesh_nodes([[sorted(pts[:2])]], np.ones_like,
                                 _GL_ORDER)[0] == end):
            del pts[1]
        pts = pts if grade_lo else pts[::-1]
    # then cells at most _H_MAX wide, their ends as Python floats
    subs = [[lo, hi] if hi - lo <= _H_MAX else np.linspace(
        lo, hi, 1 + math.ceil((hi - lo) / _H_MAX)).tolist()
        for lo, hi in zip(pts[:-1], pts[1:])]
    return [cell for sub in subs for cell in zip(sub[:-1], sub[1:])]


def _mesh_cells(ivs, other_ivs):
    """The graded cells of each interval, one list per interval.

    Each interval end lying within _H_MAX of the other operand gets the
    geometric grading; that covers touching interfaces and near contacts.
    """
    return [_graded_cells(a, b, _point_set_distance(a, other_ivs) < _H_MAX,
                          _point_set_distance(b, other_ivs) < _H_MAX)
            for a, b in ivs]


def _mesh_nodes(cells, density, order):
    """Gauss-Legendre nodes/weights (measure-weighted) on the cells."""
    z, w = leggauss(order)
    xs, ws = [], []
    for lo, hi in (cell for iv_cells in cells for cell in iv_cells):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        nodes = mid + half * z
        xs.append(nodes)
        ws.append(half * w * density(nodes))
    return np.concatenate(xs), np.concatenate(ws)


def _corner_correction(cells_a, cells_b, sigma, const):
    """What the tensor rule misses at the endpoints the operands share.

    At a point c where an interval of one operand ends and one of the
    other begins, the integrand is A (u + v)^(-1-sigma) in the distances
    u, v to c, up to a relative O(u + v), with
    A = const e^(-c^2/2) / (2 pi).  The innermost graded cells (widths
    h_a, h_b) form the only cell pair that touches this singularity, and
    the order-8 rule misses a fixed fraction of it.  Returns the sum over
    shared endpoints of A (I - Q): I is the model's exact integral over
    that pair and Q the rule's value on it.
    """
    z, w = leggauss(_GL_ORDER)
    total = 0.0
    for left, right in ((cells_a, cells_b), (cells_b, cells_a)):
        # a shared endpoint is graded on both sides, so cell ends hit it exactly
        starts = {iv_cells[0][0]: iv_cells[0][1] for iv_cells in right}
        for iv_cells in left:
            lo, c = iv_cells[-1]
            if c not in starts:
                continue
            h_a, h_b = c - lo, starts[c] - c
            p = 1.0 - sigma
            exact = (h_a ** p + h_b ** p - (h_a + h_b) ** p) / (sigma * p)
            u, v = 0.5 * h_a * (1.0 + z), 0.5 * h_b * (1.0 + z)
            rule = 0.25 * h_a * h_b * float(
                w @ np.add.outer(u, v) ** (-1.0 - sigma) @ w)
            amp = const * math.exp(-0.5 * c * c) / (2.0 * math.pi)
            total += amp * (exact - rule)
    return total


def _density_1d(x, c):
    return np.exp(-c * x * x) / math.sqrt(2.0 * math.pi)


def _grid_pairs(cells_a, cells_b, density, order):
    """Size of the tensor grid of both meshes' nodes, and its pairs by flat
    index: (x^2 + y^2, (x - y)^2, weight), never built for the whole grid."""
    xa, wa = _mesh_nodes(cells_a, density, order)
    xb, wb = _mesh_nodes(cells_b, density, order)

    def pairs(idx):
        i, k = np.divmod(idx, xb.size)
        x, y = xa[i], xb[k]
        return x * x + y * y, (x - y) ** 2, wa[i] * wb[k]
    return xa.size * xb.size, pairs


def _euclidean_sums(s_values, *, n_pairs, pairs, checked=True):
    """Weighted sums of |x - y|^(-1-s) and, if ``checked``, of their
    rounding bound, per s."""
    value = np.zeros(len(s_values))
    for lo in range(0, n_pairs, _BLOCK):
        _, rsq, w = pairs(np.arange(lo, min(lo + _BLOCK, n_pairs)))
        value += [(rsq ** (-0.5 * (1.0 + s)) * w).sum() for s in s_values]
    return value, value * 1e-14 if checked else None


def _quadrature_1d(a: SetExpr, b: SetExpr, s_values, lam=False):
    """Graded tensor quadrature for disjoint 1-D operands.

    One estimate per s: each tensor grid is summed for every s in one
    pass.  The kernel is the subordinated one under gamma or, with
    ``lam``, J^lambda's |x - y|^(-1-s) under lambda.  Both operands are
    clipped to [-r_trunc, r_trunc]; the clipped mass of the measure
    times a kernel majorant at the clipping radius bounds what that
    drops.  On the diagonal near a point c, kernel times densities tends
    to const e^(-c^2/2) / (2 pi) |x - y|^(-1-s); that sizes the
    correction at endpoints the operands share.
    """
    s_values = [float(s) for s in s_values]
    ivs_a, ivs_b = sets.to_intervals(a), sets.to_intervals(b)
    if sets._intersect_1d(ivs_a, ivs_b):
        raise OverlapError("operands overlap (nonempty interval intersection)")
    if lam:
        decay, scale, base = 0.25, _SQRT2, R_TRUNC_LAMBDA
    else:
        decay, scale, base = 0.5, 1.0, R_TRUNC_GAUSS
    r_trunc = _trunc_radius(base, scale, ivs_a, ivs_b)
    clip_a, tail_a = _clip_intervals(ivs_a, r_trunc, scale)
    clip_b, tail_b = _clip_intervals(ivs_b, r_trunc, scale)
    if not clip_a or not clip_b:   # an empty operand
        return [ZERO_ESTIMATE] * len(s_values)
    cells_a = _mesh_cells(clip_a, clip_b)
    cells_b = _mesh_cells(clip_b, clip_a)
    grids = [_grid_pairs(cells_a, cells_b, partial(_density_1d, c=decay),
                         order) for order in (_GL_ORDER, 4)]
    if lam:
        far = [r_trunc ** (-(1.0 + s)) * 4.0 for s in s_values]
        const = [1.0] * len(s_values)
        sums = _euclidean_sums
    else:
        # the radial majorant decreases, so its value at the truncation
        # radius bounds the kernel on every clipped tail
        far = kernel_upper_bound_radial(np.array(s_values), r_trunc, 1)
        # the r -> 0 constant of the kernel, as in kernel_lower_bound
        const = [2.0 ** (s + 0.5) * gamma_fn((s + 1.0) / 2.0)
                 for s in s_values]
        sums = partial(kernel_sums, n_dim=1)
    # the order-4 grid only feeds the residual: its values need no bar
    (value, err_kernel), (v4, _) = (
        sums(s_values, n_pairs=n, pairs=pairs, checked=checked)
        for (n, pairs), checked in zip(grids, (True, False)))
    # mesh residual: same cells, lower order; it also covers what the
    # corner correction leaves behind
    err = err_kernel + np.abs(value - v4) + (tail_a + tail_b) * np.asarray(far)
    return [InteractionEstimate(
        float(v) + _corner_correction(cells_a, cells_b, s, c), float(e),
        "graded-quadrature-1d", grids[0][0],
    ) for v, e, s, c in zip(value, err, s_values, const)]


# ---------------------------------------------------------------------------
# operand handling
# ---------------------------------------------------------------------------

def _operand_dim(a: SetExpr, b: SetExpr, dim: int | None) -> int:
    dims = {sets.dimension(a), sets.dimension(b), dim} - {None}
    if len(dims) > 1:
        raise ValueError(f"operand dimensions disagree: {sorted(dims)}")
    return dims.pop() if dims else 1


def _check_disjoint(a, b, dim):
    """Refuse operands whose intersection has Gaussian mass above its
    error; a set and its complement are disjoint by construction."""
    if sets.complement(a) != b:
        both = gauss_measure(sets.intersect(a, b), dim=dim)
        if both.value > both.error:
            raise OverlapError(f"operands overlap on {both.value:.3g} of mass")


def _on_the_normal(a: SetExpr, b: SetExpr):
    """A half-space and its complement as the 1-D pair along the normal, else
    None.  The Mehler kernel is a product over coordinates whose factors
    integrate to 1, so their interaction only sees x.n."""
    h = a if isinstance(a, sets.HalfSpace) else b
    if not (isinstance(h, sets.HalfSpace) and sets.Complement(h) in (a, b)):
        return None
    line = sets.HalfSpace((1.0,), h.offset)
    pair = (line, sets.Complement(line))
    return pair if h is a else pair[::-1]


def _three_pieces(e: SetExpr, omega: SetExpr):
    """Operand pairs of the three-term split of E relative to Omega.

    (E & Omega, E^c & Omega), (E & Omega, E^c & Omega^c) and
    (E & Omega^c, E^c & Omega), in the order of PerimeterBreakdown.
    """
    ec, oc = sets.complement(e), sets.complement(omega)
    e_in = sets.intersect(e, omega)
    ec_in = sets.intersect(ec, omega)
    return [(e_in, ec_in),
            (e_in, sets.intersect(ec, oc)),
            (sets.intersect(e, oc), ec_in)]


# ---------------------------------------------------------------------------
# interaction
# ---------------------------------------------------------------------------

def interaction(a: SetExpr, b: SetExpr, s: float, *, seed: int = 0,
                dim: int | None = None) -> InteractionEstimate:
    """Interaction energy of disjoint sets under the subordinated kernel of
    index s; N-D operands whose intersection has mass are refused here."""
    n_dim = _operand_dim(a, b, dim)
    if n_dim > 1:
        _check_disjoint(a, b, n_dim)
    return _interactions(a, b, (s,), seed, n_dim, _draws(seed, [(a, b)]))[0]


def _draws(seed, pairs):
    """draw(n_dim, expr, stream) for the operand ``pairs``, A on stream 1 and
    B on 2 (a pair with an Empty operand draws nothing): _N_PAIRS points on
    expr, each drawn once and held until its last use."""
    uses = Counter(key for pair in pairs if sets.Empty() not in pair
                   for key in zip(pair, (1, 2)))
    held = {}

    def draw(n_dim, expr, stream):
        key = (expr, stream)
        uses[key] -= 1
        pts = held.pop(key) if key in held else sample_gaussian(
            _N_PAIRS, seed=seed, dim=n_dim, restrict=expr, stream=stream)
        if uses[key] > 0:
            held[key] = pts
        return pts
    return draw


def _interactions(a, b, s_values, seed, dim, draw, lam=False):
    """The interaction of disjoint a and b at each s, or J^lambda's with
    ``lam`` (N = 1 only).  The 1-D rule, also that of a half-space against
    its complement in any N, serves every s in one pass; the Monte Carlo
    route takes its points from ``draw`` once and reuses them for every s."""
    for s in s_values:
        if not 0 < s < 1:
            raise ValueError(f"s must lie in (0,1), got {s}")
    n_dim = _operand_dim(a, b, dim)
    if lam and n_dim != 1:
        raise NotImplementedError("j_lambda is implemented for N = 1")
    line = _on_the_normal(a, b) if n_dim > 1 else None
    if n_dim == 1 or line:
        return _quadrature_1d(*(line or (a, b)), s_values, lam)

    # an Empty operand has closed-form mass 0: no probe, no draws
    mass_a = gauss_measure(a, dim=n_dim).value
    mass_b = gauss_measure(b, dim=n_dim).value
    if mass_a == 0.0 or mass_b == 0.0:
        return [ZERO_ESTIMATE] * len(s_values)
    x, y_gauss = draw(n_dim, a, 1), draw(n_dim, b, 2)
    return [_interaction_mc(b, s, seed, mass_a, mass_b, x, y_gauss)
            for s in s_values]


def _interaction_mc(b, sigma, seed, mass_a, mass_b, x, y_gauss):
    """Mixture importance sampling of the pair integral.

    x ~ gamma|_A.  y from an equal mixture of gamma|_B and a shell around
    x with radial law ~ r^(-1-sigma) on [r_lo, 1] (the radial proposal
    soaks up the near-diagonal kernel mass so the weighted integrand has
    finite variance even for touching operands).
    """
    n, n_dim = x.shape
    idx, sq, rsq, gauss_pdf_y, q = _mixture_pairs(b, sigma, seed, mass_b,
                                                  x, y_gauss)
    weighted = np.zeros(n)
    if idx.size:
        kv, _ = kernel_batch(sigma, sq=sq, rsq=rsq, n_dim=n_dim,
                             checked=False)
        weighted[idx] = kv * gauss_pdf_y / q

    mean = float(weighted.mean())
    se = float(weighted.std(ddof=1)) / math.sqrt(n)
    return InteractionEstimate(mass_a * mean, mass_a * se, "monte-carlo", n)


def _mixture_pairs(b, sigma, seed, mass_b, x, y_gauss):
    """The pairs of _interaction_mc, worked through in blocks, reduced to
    the pairs with y in B and q > 0: their indices, |x|^2 + |y|^2,
    |x - y|^2, gamma's density at y and the mixture density q at y."""
    n, n_dim = x.shape
    rng = _rng(seed, 3)
    take_shell = rng.random(n) < 0.5
    # shell radii by inverse CDF of the truncated power law
    c = _SHELL_R_LO ** (-sigma)
    radii = (c - rng.random(n) * (c - 1.0)) ** (-1.0 / sigma)
    dirs = rng.standard_normal((n, n_dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # the shell's radial law on [r_lo, 1] times the unit sphere's area
    area = 2.0 * math.pi ** (n_dim / 2.0) / gamma_fn(n_dim / 2.0)
    norm = (c - 1.0) / sigma * area
    live_pairs = []
    for lo in range(0, n, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        xb = x[blk]
        y = np.where(take_shell[blk, None], xb + radii[blk, None] * dirs[blk],
                     y_gauss[blk])
        in_b = sets.contains(b, y)
        gauss_pdf_y = (2.0 * math.pi) ** (-n_dim / 2.0) * np.exp(
            -0.5 * np.einsum("ij,ij->i", y, y))
        r = np.linalg.norm(y - xb, axis=1)
        shell_ok = (r > _SHELL_R_LO) & (r < 1.0)
        radial_pdf = np.zeros(r.size)
        radial_pdf[shell_ok] = r[shell_ok] ** (-n_dim - sigma) / norm
        q = 0.5 * gauss_pdf_y * in_b / mass_b + 0.5 * radial_pdf
        live = np.flatnonzero(in_b & (q > 0.0) & (r > 0.0))
        xs, ys = xb[live], y[live]
        live_pairs.append((
            lo + live,
            np.einsum("ij,ij->i", xs, xs) + np.einsum("ij,ij->i", ys, ys),
            r[live] ** 2, gauss_pdf_y[live], q[live],
        ))
    return tuple(map(np.concatenate, zip(*live_pairs)))


# ---------------------------------------------------------------------------
# perimeter and the weighted competitor
# ---------------------------------------------------------------------------

def perimeter(e: SetExpr, omega: SetExpr, s: float, *, seed: int = 0,
              dim: int | None = None) -> PerimeterBreakdown:
    """Three-term fractional perimeter of E relative to the window Omega."""
    return _perimeters(e, omega, (s,), seed, dim)[0]


def j_lambda(e: SetExpr, omega: SetExpr, s: float, *,
             dim: int | None = None) -> PerimeterBreakdown:
    """Euclidean-kernel competitor functional under the weighted measure.

    Same three-term structure as the perimeter with kernel |x-y|^(-(N+s))
    and the variance-2 weighted measure on both factors.  1-D only: the
    in-scope asymptotics live there (the kernel has no subordination
    structure to exploit elsewhere).
    """
    return _perimeters(e, omega, (s,), 0, dim, lam=True)[0]


def _perimeters(e, omega, s_values, seed, dim, lam=False):
    """One PerimeterBreakdown per s, of the perimeter or, with ``lam``, of
    J^lambda.  The pieces are disjoint by construction: nothing checks them.
    Pieces 1-2 share the draws of E & Omega and pieces 1 and 3 those of
    E^c & Omega: in the order 2, 1, 3, one shared draw is held at a time."""
    pieces = _three_pieces(e, omega)
    draw = _draws(seed, pieces)
    parts = {k: _interactions(*pieces[k], s_values, seed, dim, draw, lam)
             for k in (1, 0, 2)}
    return [PerimeterBreakdown(*row) for row in zip(*map(parts.get, range(3)))]


# ---------------------------------------------------------------------------
# direct seminorm
# ---------------------------------------------------------------------------

def seminorm_sq_direct(u, s: float, *, dim: int = 1,
                       seed: int = 0) -> InteractionEstimate:
    """Squared Gaussian-Sobolev seminorm by the double integral, index s.

    The kernel index is 2s.  Indicator arguments (SetExpr) route through
    the interaction engine: the squared difference of an indicator is the
    symmetric pair indicator, so the seminorm is twice the E/E^c
    interaction at index 2s; interaction refuses 2s >= 1, where that is
    +inf whenever E has a boundary point.  Callables go through
    _seminorm_callable, a deterministic rule.
    """
    if not 0 < s < 1:
        raise ValueError(f"s must lie in (0,1), got {s}")
    if isinstance(u, sets.SetExpr):
        est = interaction(u, sets.complement(u), 2.0 * s, seed=seed, dim=dim)
        return InteractionEstimate(2.0 * est.value, 2.0 * est.error,
                                   est.method, est.samples_or_cells)
    return _seminorm_callable(u, s, dim)


def _seminorm_callable(u, s: float, dim: int) -> InteractionEstimate:
    """[u]_s^2 = int_0^inf t^(-s-1) g(t) dt, g(t) = E[(u(X) - u(Y))^2].

    Y = e^-t X + sqrt(1 - e^-2t) Z, with Y - X formed without cancellation,
    on the tensor Gauss-Hermite rule in (X, Z); the time integral on
    mehler's log-time panels from _T0 to T.  Below _T0, g(t) = g(_T0) t/_T0
    to relative O(t); beyond T, g = g(inf) = E[(u(X) - u(Z))^2] to O(e^-T).
    The error adds the differences of the two time rules and of the two
    Hermite orders, the cancellation in u(X) - u(Y) (~eps (|u(X)| + |u(Y)|)
    per point) and the rounding of the sum.
    """
    if dim not in _HERMITE_ORDERS:
        raise NotImplementedError("callable seminorms need N <= 3")
    v, w = log_time_panels(_T0)
    times = np.exp(np.concatenate([[math.log(_T0)], v]))
    rules = np.hstack([np.full((2, 1), _T0 ** -s / (1.0 - s)),
                       w * np.exp(-s * v), np.full((2, 1), _TAIL_TIME ** -s / s)])
    g, u_sq = [], []   # per Hermite order: g at each time and at inf; E u^2
    for order in _HERMITE_ORDERS[dim]:
        pts, wts = _tensor_rule(order, 2 * dim)
        x, z = pts[:, :dim], pts[:, dim:]
        ux = np.asarray(u(x), dtype=float)
        g.append(np.array([wts @ (ux - u(x + (
            math.expm1(-t) * x + math.sqrt(-math.expm1(-2.0 * t)) * z))) ** 2
            for t in times] + [wts @ (ux - u(z)) ** 2]))
        u_sq.append(wts @ ux ** 2)
    (value, value_low), eps = rules @ g[0], 2.0 ** -52
    error = (abs(value - value_low) + abs(value - rules[0] @ g[1])
             + rules[0] @ (4.0 * eps * np.sqrt(g[0] * u_sq[0]))
             + g[0].size * eps * value)
    return InteractionEstimate(float(value), float(error), "gauss-hermite",
                               times.size * _HERMITE_ORDERS[dim][0] ** (2 * dim))
