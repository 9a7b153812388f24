"""Spatial integration of singular-kernel interaction energies.

Computes the interaction L_s(A,B) = int_A dgamma int_B K_s dgamma, the
three-term fractional perimeter of a set inside a window, the weighted
Euclidean-kernel competitor functional, and the direct double-integral
Sobolev seminorm.

Two routes.  In one dimension both operands reduce exactly to interval
unions and a tensor Gauss-Legendre rule on a mesh geometrically graded
toward every near-contact endpoint integrates the |x-y|^(-1-s)-type
singularity to near machine precision.  Otherwise a Monte Carlo estimator
draws x from the conditioned Gaussian on A and y from an equal-weight
mixture of the conditioned Gaussian on B and a radially concentrated
shell proposal around x, which keeps the variance finite despite the
near-diagonal kernel blow-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import sets
from .errors import BudgetExceededError, OverlapError
from .measure import (_SQRT2, _rng, gamma_fn, gauss_measure, sample_gaussian,
                      std_normal_cdf)
from .mehler import (_BLOCK, kernel_batch, kernel_sums,
                     kernel_upper_bound_radial)
from .sets import SetExpr

R_TRUNC_GAUSS = 8.6    # gamma mass beyond ~ 4e-18
R_TRUNC_LAMBDA = 12.2  # lambda mass beyond ~ 6e-18
_GRADE_LEVELS = 40
_H_MAX = 0.25
_GL_ORDER = 8
_SHELL_R_LO = 1e-6
_N_PAIRS = 200_000  # Monte Carlo pairs per estimate


@dataclass
class Budget:
    """Kernel-evaluation budget; deterministic substitute for wall-clock."""

    max_evals: int = 10 ** 8
    used: int = 0

    def charge(self, n: int) -> None:
        if self.used + n > self.max_evals:
            raise BudgetExceededError(
                f"budget of {self.max_evals} kernel evaluations exhausted "
                f"({self.used} used, {n} requested)"
            )
        self.used += n

    @property
    def remaining(self) -> int:
        return max(0, self.max_evals - self.used)


@dataclass(frozen=True)
class InteractionEstimate:
    value: float
    error: float
    method: str  # "graded-quadrature-1d" | "monte-carlo" | "hybrid"
    samples_or_cells: int

    def __add__(self, other: "InteractionEstimate") -> "InteractionEstimate":
        # an operand that did no work (an empty piece) leaves the tag alone
        if not other.samples_or_cells:
            return self
        if not self.samples_or_cells:
            return other
        method = self.method if self.method == other.method else "hybrid"
        return InteractionEstimate(
            self.value + other.value, self.error + other.error,
            method, self.samples_or_cells + other.samples_or_cells,
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
    cells = []
    if not (grade_lo or grade_hi):
        n = max(1, int(math.ceil((b - a) / _H_MAX)))
        pts = np.linspace(a, b, n + 1)
        return list(zip(pts[:-1], pts[1:]))
    length = b - a
    # breakpoints accumulate at the graded end with ratio-2 refinement
    fracs = [2.0 ** (-k) for k in range(_GRADE_LEVELS + 1)]
    if grade_lo:
        pts = [a] + [a + length * f for f in reversed(fracs)]
    else:
        pts = [b - length * f for f in fracs] + [b]
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi - lo > _H_MAX:
            n = int(math.ceil((hi - lo) / _H_MAX))
            sub = np.linspace(lo, hi, n + 1)
            cells.extend(zip(sub[:-1], sub[1:]))
        else:
            cells.append((lo, hi))
    return cells


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


def _gauss_density_1d(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _lambda_density_1d(x):
    return np.exp(-0.25 * x * x) / math.sqrt(2.0 * math.pi)


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


def _euclidean_sums(s_values, *, n_pairs, pairs):
    """Weighted sums of |x - y|^(-1-s) and of their rounding bound, per s."""
    value = np.zeros(len(s_values))
    for lo in range(0, n_pairs, _BLOCK):
        _, rsq, w = pairs(np.arange(lo, min(lo + _BLOCK, n_pairs)))
        value += [(rsq ** (-0.5 * (1.0 + s)) * w).sum() for s in s_values]
    return value, value * 1e-14


def _quadrature_1d(a: SetExpr, b: SetExpr, s_values, budget, lam=False):
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
    pair = _intervals_1d(a, b)
    if pair is None:
        return [ZERO_ESTIMATE] * len(s_values)
    ivs_a, ivs_b = pair
    if lam:
        density, scale, base = _lambda_density_1d, _SQRT2, R_TRUNC_LAMBDA
    else:
        density, scale, base = _gauss_density_1d, 1.0, R_TRUNC_GAUSS
    r_trunc = _trunc_radius(base, scale, ivs_a, ivs_b)
    clip_a, tail_a = _clip_intervals(ivs_a, r_trunc, scale)
    clip_b, tail_b = _clip_intervals(ivs_b, r_trunc, scale)
    if not clip_a or not clip_b:
        return [ZERO_ESTIMATE] * len(s_values)
    cells_a = _mesh_cells(clip_a, clip_b)
    cells_b = _mesh_cells(clip_b, clip_a)
    grids = [_grid_pairs(cells_a, cells_b, density, order)
             for order in (_GL_ORDER, 4)]
    budget.charge(len(s_values) * sum(n for n, _ in grids))
    if lam:
        far = [r_trunc ** (-(1.0 + s)) * 4.0 for s in s_values]
        const = [1.0] * len(s_values)
        sums = _euclidean_sums
    else:
        sep = min(
            (_point_set_distance(p, ivs_b)
             for iv in ivs_a for p in iv if math.isfinite(p)),
            default=r_trunc,
        )
        # kernel majorant at the truncation radius bounds the clipped tails
        far = kernel_upper_bound_radial(np.array(s_values),
                                        max(sep, r_trunc), 1)
        # the r -> 0 constant of the kernel, as in kernel_lower_bound
        const = [2.0 ** (s + 0.5) * gamma_fn((s + 1.0) / 2.0)
                 for s in s_values]
        sums = partial(kernel_sums, n_dim=1)
    (value, err_kernel), (v4, _) = (sums(s_values, n_pairs=n, pairs=pairs)
                                    for n, pairs in grids)
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
    d = sets.dimension(a)
    db = sets.dimension(b)
    for cand in (db, dim):
        if d is None:
            d = cand
        elif cand is not None and cand != d:
            raise ValueError(f"operand dimensions disagree: {d} vs {cand}")
    return 1 if d is None else d


def _check_disjoint_mc(a, b, dim, seed):
    pts = sample_gaussian(10 ** 4, seed=seed ^ 0xD155, dim=dim, stream=9)
    both = sets.contains(a, pts) & sets.contains(b, pts)
    if both.any():
        frac = float(both.mean())
        raise OverlapError(f"operands overlap on ~{frac:.1%} of Gaussian mass")


def _intervals_1d(a: SetExpr, b: SetExpr):
    """Both operands as interval unions; None if either is empty."""
    ivs_a = sets.to_intervals(a)
    ivs_b = sets.to_intervals(b)
    if not ivs_a or not ivs_b:
        return None
    if sets._intersect_1d(ivs_a, ivs_b):
        raise OverlapError("operands overlap (nonempty interval intersection)")
    return ivs_a, ivs_b


def _three_pieces(e: SetExpr, omega: SetExpr):
    """Operand pairs of the three-term split of E relative to Omega.

    (E & Omega, E^c & Omega), (E & Omega, E^c & Omega^c) and
    (E & Omega^c, E^c & Omega), in the order of PerimeterBreakdown.
    """
    ec = sets.complement(e)
    oc = sets.complement(omega)
    e_in = sets.intersect(e, omega)
    ec_in = sets.intersect(ec, omega)
    return [(e_in, ec_in),
            (e_in, sets.intersect(ec, oc)),
            (sets.intersect(e, oc), ec_in)]


# ---------------------------------------------------------------------------
# interaction
# ---------------------------------------------------------------------------

def interaction(
    a: SetExpr,
    b: SetExpr,
    s: float,
    *,
    budget: Budget | None = None,
    seed: int = 0,
    dim: int | None = None,
) -> InteractionEstimate:
    """Interaction energy of disjoint sets under the subordinated kernel of index s."""
    if not 0 < s < 1:
        raise ValueError(f"s must lie in (0,1), got {s}")
    budget = budget if budget is not None else Budget()
    n_dim = _operand_dim(a, b, dim)

    if n_dim == 1:
        return _quadrature_1d(a, b, (s,), budget)[0]

    # an Empty operand has closed-form mass 0: no probe, no budget charge
    mass_a = gauss_measure(a, dim=n_dim, seed=seed ^ 0xA)
    mass_b = gauss_measure(b, dim=n_dim, seed=seed ^ 0xB)
    if mass_a.value == 0.0 or mass_b.value == 0.0:
        return ZERO_ESTIMATE
    _check_disjoint_mc(a, b, n_dim, seed)
    return _interaction_mc(a, b, s, budget, seed, n_dim, mass_a, mass_b)


def _sphere_surface(n_dim: int) -> float:
    return 2.0 * math.pi ** (n_dim / 2.0) / gamma_fn(n_dim / 2.0)


def _interaction_mc(a, b, sigma, budget, seed, n_dim, mass_a, mass_b):
    """Mixture importance sampling of the pair integral.

    x ~ gamma|_A.  y from an equal mixture of gamma|_B and a shell around
    x with radial law ~ r^(-1-sigma) on [r_lo, 1] (the radial proposal
    soaks up the near-diagonal kernel mass so the weighted integrand has
    finite variance even for touching operands).
    """
    n = min(_N_PAIRS, budget.remaining)
    if n < 1000:
        raise BudgetExceededError("fewer than 1000 Monte Carlo pairs left in budget")
    budget.charge(n)
    idx, sq, rsq, gauss_pdf_y, q = _mixture_pairs(a, b, sigma, seed, n,
                                                  n_dim, mass_b.value)
    weighted = np.zeros(n)
    if idx.size:
        kv, _ = kernel_batch(sigma, sq=sq, rsq=rsq, n_dim=n_dim)
        weighted[idx] = kv * gauss_pdf_y / q

    mean = float(weighted.mean())
    se = float(weighted.std(ddof=1)) / math.sqrt(n)
    value = mass_a.value * mean
    error = mass_a.value * se + mass_a.std_error * abs(mean)
    # the mixture uses the estimated gamma(B); its relative error leaks in
    if mass_b.std_error > 0:
        error += 0.5 * value * mass_b.std_error / mass_b.value
    return InteractionEstimate(value, error, "monte-carlo", n)


def _mixture_pairs(a, b, sigma, seed, n, n_dim, mass_b):
    """The draws of _interaction_mc, worked through in blocks, reduced to
    the pairs with y in B and q > 0: their indices, |x|^2 + |y|^2,
    |x - y|^2, gamma's density at y and the mixture density q at y.
    The full-size draws are freed on return, before the kernel call."""
    x = sample_gaussian(n, seed=seed, dim=n_dim, restrict=a, stream=1)
    y_gauss = sample_gaussian(n, seed=seed, dim=n_dim, restrict=b, stream=2)
    rng = _rng(seed, 3)
    take_shell = rng.random(n) < 0.5
    # shell radii by inverse CDF of the truncated power law
    u = rng.random(n)
    c = _SHELL_R_LO ** (-sigma)
    radii = (c - u * (c - 1.0)) ** (-1.0 / sigma)
    dirs = rng.standard_normal((n, n_dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    norm = (c - 1.0) / sigma
    live_pairs = []
    for lo in range(0, n, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        xb = x[blk]
        y = np.where(take_shell[blk, None], xb + radii[blk, None] * dirs[blk],
                     y_gauss[blk])
        in_b = sets.contains(b, y)
        gauss_pdf_y = (2.0 * math.pi) ** (-n_dim / 2.0) * np.exp(
            -0.5 * np.einsum("ij,ij->i", y, y)
        )
        r = np.linalg.norm(y - xb, axis=1)
        shell_ok = (r > _SHELL_R_LO) & (r < 1.0)
        radial_pdf = np.zeros(r.size)
        radial_pdf[shell_ok] = (
            r[shell_ok] ** (-1.0 - sigma) / norm
            / (_sphere_surface(n_dim) * r[shell_ok] ** (n_dim - 1))
        )
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

def perimeter(
    e: SetExpr,
    omega: SetExpr,
    s: float,
    *,
    budget: Budget | None = None,
    seed: int = 0,
    dim: int | None = None,
) -> PerimeterBreakdown:
    """Three-term fractional perimeter of E relative to the window Omega."""
    budget = budget if budget is not None else Budget()
    return PerimeterBreakdown(*(
        interaction(pa, pb, s, budget=budget, seed=seed, dim=dim)
        for pa, pb in _three_pieces(e, omega)
    ))


def j_lambda(
    e: SetExpr,
    omega: SetExpr,
    s: float,
    *,
    budget: Budget | None = None,
    dim: int | None = None,
) -> PerimeterBreakdown:
    """Euclidean-kernel competitor functional under the weighted measure.

    Same three-term structure as the perimeter with kernel |x-y|^(-(N+s))
    and the variance-2 weighted measure on both factors.  1-D only: the
    in-scope asymptotics live there (the kernel has no subordination
    structure to exploit elsewhere).
    """
    if not 0 < s < 1:
        raise ValueError(f"s must lie in (0,1), got {s}")
    budget = budget if budget is not None else Budget()
    parts = []
    for pa, pb in _three_pieces(e, omega):
        if _operand_dim(pa, pb, dim) != 1:
            raise NotImplementedError("j_lambda is implemented for N = 1")
        parts.extend(_quadrature_1d(pa, pb, (s,), budget, lam=True))
    return PerimeterBreakdown(*parts)


# ---------------------------------------------------------------------------
# direct seminorm
# ---------------------------------------------------------------------------

def seminorm_sq_direct(
    u,
    s: float,
    *,
    dim: int = 1,
    budget: Budget | None = None,
    seed: int = 0,
) -> InteractionEstimate:
    """Squared Gaussian-Sobolev seminorm by the double integral, index s.

    The kernel index is 2s.  Indicator arguments (SetExpr) route through
    the interaction engine: the squared difference of an indicator is the
    symmetric pair indicator, so the seminorm is twice the E/E^c
    interaction at index 2s; interaction refuses 2s >= 1, where that is
    +inf whenever E has a boundary point.  Callables are integrated by
    plain Monte Carlo over independent Gaussian pairs (smooth integrands
    keep the variance finite without the shell proposal).
    """
    if not 0 < s < 1:
        raise ValueError(f"s must lie in (0,1), got {s}")
    budget = budget if budget is not None else Budget()
    if isinstance(u, sets.SetExpr):
        est = interaction(u, sets.complement(u), 2.0 * s, budget=budget,
                          seed=seed, dim=dim)
        return InteractionEstimate(
            2.0 * est.value, 2.0 * est.error, est.method, est.samples_or_cells
        )
    n = min(_N_PAIRS, budget.remaining)
    if n < 1000:
        raise BudgetExceededError("fewer than 1000 Monte Carlo pairs left in budget")
    budget.charge(n)
    x = sample_gaussian(n, seed=seed, dim=dim, stream=5)
    y = sample_gaussian(n, seed=seed, dim=dim, stream=6)
    du = np.asarray(u(x), dtype=float) - np.asarray(u(y), dtype=float)
    sq = np.einsum("ij,ij->i", x, x) + np.einsum("ij,ij->i", y, y)
    x -= y
    rsq = np.einsum("ij,ij->i", x, x)
    del x, y  # not held through the kernel call
    live = rsq > 0.0
    vals = np.zeros(n)
    kv, _ = kernel_batch(2.0 * s, sq=sq[live], rsq=rsq[live], n_dim=dim)
    vals[live] = du[live] ** 2 * kv
    mean = float(vals.mean())
    se = float(vals.std(ddof=1)) / math.sqrt(n)
    return InteractionEstimate(mean, se, "monte-carlo", n)
