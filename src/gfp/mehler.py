"""Ornstein-Uhlenbeck transition kernel and its time-subordinated integral.

The transition kernel relative to the Gaussian measure is

    M_t(x,y) = (1-e^{-2t})^{-N/2}
               exp(-[e^{-2t}|x|^2 - 2e^{-t} x.y + e^{-2t}|y|^2] / [2(1-e^{-2t})])

and the jump kernel of the fractional operator is the subordination
integral K_sigma(x,y) = int_0^inf M_t(x,y) t^{-sigma/2-1} dt.

Evaluation: one routine, _subordinate, serves a single pair, kernel_batch
and the weighted sums of kernel_sums, for one index sigma or many.  In
v = log t the integrand is a smooth bump, analytic in |Im v| < pi/2, so
the composite Gauss-Legendre panels of log_time_panels converge
geometrically from a floor e^-40 below the peak up to t = T; their 16-
against 12-node difference plus the rounding of the sum is the error
estimate, skipped where only values are read.  The tail t > T is analytic
up to the certified deviation of M_t from 1, folded into the bound.  The
exponent of every (node, pair) is one matrix product, the time sum another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import SingularInputError, ToleranceError
from .measure import _tensor_rule

# The subordination time integral: Gauss-Legendre panels in v = log t up
# to _TAIL_TIME, analytic tail beyond.
_TAIL_TIME = 40.0
_PANEL_WIDTH = 2.0
_LEGENDRE = (leggauss(16), leggauss(12))  # per panel: rule, error estimate
_BLOCK = 32768  # pairs per block wherever no per-pair array is kept
_CHUNK = 2 ** 15  # time nodes x pairs per exp and matrix product
REL_TOL = 1e-8  # kernel_K's default: a larger relative error bound raises


@dataclass(frozen=True)
class KernelValue:
    value: float
    error_bound: float


# ---------------------------------------------------------------------------
# Mehler kernel
# ---------------------------------------------------------------------------

def _mehler_coeffs(t: float | np.ndarray, n_dim: int):
    """(log-prefactor, coefficient of |x-y|^2, coefficient of |x|^2+|y|^2).

    log M_t = lp + c_r |x-y|^2 + c_s (|x|^2+|y|^2) with c_r = -e^-t/(2(1-e^-2t))
    and c_s = e^-t/(2(1+e^-t)).  Unlike the textbook grouping by |x|^2+|y|^2
    and x.y, these two terms never cancel catastrophically, so the exponent
    stays accurate for nearly coincident points far from the origin.
    """
    a = np.exp(-t)
    em = -np.expm1(-2.0 * t)  # 1 - e^{-2t}, accurate for small t
    return -0.5 * n_dim * np.log(em), -a / (2.0 * em), a / (2.0 * (1.0 + a))


def semigroup_mass(t: float, x) -> float:
    """Gauss-Hermite value of int M_t(x, .) dgamma; equals 1 analytically."""
    if not t > 0:
        raise ValueError("t must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y, wprod = _tensor_rule(160, x.size)
    lp, c_r, c_s = _mehler_coeffs(t, x.size)
    sq = float(x @ x) + np.einsum("ij,ij->i", y, y)
    rsq = np.einsum("ij,ij->i", y - x, y - x)
    with np.errstate(under="ignore"):  # far nodes: exactly 0, as they should
        vals = np.exp(lp + c_r * rsq + c_s * sq)
    return float(vals @ wprod)


# ---------------------------------------------------------------------------
# the subordination integral
# ---------------------------------------------------------------------------

def _t_floor(rsq: float, sq: float, n_dim: int) -> float:
    """Time below which the integrand is provably negligible (rel ~ e^-40).

    Uses exp(phi_t) <= exp(-r^2/(4 sinh t) + (|x|^2+|y|^2)/4) and inflates
    the cut to absorb the algebraic prefactor growth.
    """
    cut = 40.0 + sq / 4.0
    t0 = rsq / (4.0 * cut)
    if 0 < t0 < 1:
        cut += (n_dim / 2.0 + 1.5) * (-math.log(t0))
        t0 = rsq / (4.0 * cut)
    return min(t0, 0.5)


def _tail_defect(rsq: np.ndarray, sq: np.ndarray, n_dim: int) -> np.ndarray:
    """Per pair, a bound on |M_t - 1| over the analytic tail t > T.

    The deviation is certified per pair by probing t = T, 2T, 4T and
    checking monotone decay (it always holds at T >= 40 for desk-scale
    points; a failed check inflates the bound instead of trusting it).
    """
    lp, c_r, c_s = _mehler_coeffs(_TAIL_TIME * np.vstack([1.0, 2.0, 4.0]), n_dim)
    probes = np.abs(np.expm1(lp + c_r * rsq + c_s * sq))  # (3, pairs)
    eps = np.max(probes, axis=0)
    monotone = (probes[0] >= probes[1]) & (probes[1] >= probes[2])
    return np.where(monotone, eps, 10.0 * eps)


def log_time_panels(t_lo: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rules in v = log t on [log t_lo, log T].

    Equal panels at most _PANEL_WIDTH wide, 16 nodes each, then the same
    panels with 12 nodes.  Returns all nodes v and weights w of shape
    (2, len(v)), zero off each rule's own nodes, so that w @ f(e^v) is
    each rule's value of int f(t) dt/t.
    """
    lo, hi = math.log(t_lo), math.log(_TAIL_TIME)
    edges = np.linspace(lo, hi, 1 + max(1, math.ceil((hi - lo) / _PANEL_WIDTH)))
    half = 0.5 * (edges[1] - edges[0])
    v = [np.add.outer(edges[:-1] + half, half * z).ravel()
         for z, _ in _LEGENDRE]
    w = np.zeros((2, v[0].size + v[1].size))
    w[0, :v[0].size] = np.tile(half * _LEGENDRE[0][1], edges.size - 1)
    w[1, v[0].size:] = np.tile(half * _LEGENDRE[1][1], edges.size - 1)
    return np.concatenate(v), w


def _subordinate(sigmas, n_pairs: int, pairs, n_dim: int, checked=True):
    """The one subordination rule, for every index in ``sigmas`` at once.

    ``pairs(idx)`` returns (|x|^2+|y|^2, |x-y|^2, weight) of the pairs
    with indices ``idx``; the weight is only handed back.  Pairs are
    banded by separation so that the log-time panels of each band only
    span the region where its integrands live, and worked through in
    blocks of at most _BLOCK pairs.  A chunk's sigma-free exponents are
    the band's (nodes x 3) [lp, c_r, c_s] times the block's (3 x pairs)
    [1; |x-y|^2; |x|^2+|y|^2]; their exp, in place, meets every index's
    weights in a second product (an exp below -745 is exactly 0 and adds
    nothing: no clamp, no underflow signal).  Yields
    (idx, weight, values, errors) per block, values and errors of shape
    (len(sigmas), len(idx)); the error adds the difference of the two
    rules of log_time_panels, the analytic-tail defect and the rounding
    of the sum.  Unless ``checked``, only the 16-node rule is evaluated
    and errors is None.
    """
    if not n_pairs:
        return
    band = np.empty(n_pairs, dtype=np.int16)
    for lo in range(0, n_pairs, _BLOCK):
        idx = np.arange(lo, min(lo + _BLOCK, n_pairs))
        rsq = pairs(idx)[1]
        if np.any(rsq <= 0.0):
            raise SingularInputError(
                "the subordinated kernel is singular at x = y")
        band[idx] = np.floor(np.log2(rsq) / 2.0)  # factor-4 bands in r^2
    tail = (2.0 / sigmas) * _TAIL_TIME ** (-0.5 * sigmas)
    for b in range(band.min(), band.max() + 1):
        members = np.flatnonzero(band == b)
        blocks = [members[lo:lo + _BLOCK]
                  for lo in range(0, members.size, _BLOCK)]
        if not blocks:
            continue
        vs, w = log_time_panels(_t_floor(
            min(float(pairs(idx)[1].min()) for idx in blocks),
            max(float(pairs(idx)[0].max()) for idx in blocks), n_dim))
        n_fine = np.count_nonzero(w[0])
        if not checked:  # the 16-node rule alone
            vs, w = vs[:n_fine], w[:1, :n_fine]
        # per rule, index and node the weight times t^(-sigma/2); per node
        # the Mehler exponent's coefficients (lp, c_r, c_s), as one row
        w = w[:, None, :] * np.exp(-0.5 * np.multiply.outer(sigmas, vs))
        coeffs = np.column_stack(_mehler_coeffs(np.exp(vs), n_dim))
        step = max(1, _CHUNK // vs.size)
        for idx in blocks:
            sq, rsq, weight = pairs(idx)
            basis = np.stack([np.ones_like(rsq), rsq, sq])
            sums = np.empty((len(w), sigmas.size, idx.size))
            with np.errstate(under="ignore"):  # exp below -745 is exactly 0
                for lo in range(0, idx.size, step):  # nodes x pairs at a time
                    g = coeffs @ basis[:, lo:lo + step]
                    sums[:, :, lo:lo + step] = w @ np.exp(g, out=g)
            values, errors = sums[0] + tail[:, None], None
            if checked:
                errors = (np.abs(sums[0] - sums[1]) + np.multiply.outer(
                    tail, _tail_defect(rsq, sq, n_dim)))
                errors += values * 1e-13  # neglected sliver below the floor
                # rounding of the positive-term sum: one ulp per summed node
                errors += n_fine * 2.0 ** -52 * sums[0]
            yield idx, weight, values, errors


def kernel_batch(sigma: float, *, sq: np.ndarray, rsq: np.ndarray,
                 n_dim: int, checked: bool = True):
    """K_sigma for many pairs at once, given |x|^2+|y|^2 and |x-y|^2.

    Returns (values, error bounds), one per pair; unless ``checked``, the
    bounds are not computed and come back as None.
    """
    sq, rsq = (np.asarray(a, dtype=float).ravel() for a in (sq, rsq))
    out = np.empty((2 if checked else 1, rsq.size))  # values, [errors]
    for idx, _, vals, errs in _subordinate(
            np.array([float(sigma)]), rsq.size,
            lambda idx: (sq[idx], rsq[idx], None), n_dim, checked):
        out[:, idx] = (vals[0], errs[0]) if checked else vals
    return out[0], out[1] if checked else None


def kernel_sums(sigmas, *, n_pairs: int, pairs, n_dim: int,
                checked: bool = True):
    """Weighted sums of K_sigma over pairs given by index, for every sigma.

    ``pairs(idx)`` returns (|x|^2+|y|^2, |x-y|^2, weight) of the pairs
    with indices ``idx`` in range(n_pairs).  Returns, per sigma, the sums
    of weight * K and of weight * error bound, reduced block by block;
    unless ``checked``, the second is None.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    value, error = np.zeros((2, sigmas.size))
    for _, weight, vals, errs in _subordinate(sigmas, n_pairs, pairs, n_dim,
                                              checked):
        # pairwise sums, not a dot product: the mesh error bar is the
        # difference of two such sums and must not carry their rounding
        value += (vals * weight).sum(axis=1)
        error += (errs * weight).sum(axis=1) if checked else 0.0
    return value, error if checked else None


# ---------------------------------------------------------------------------
# one pair: the kernel and its bounds
# ---------------------------------------------------------------------------

def _pair_stats(x, y) -> tuple[float, float, int]:
    """(|x|^2+|y|^2, |x-y|^2, N) of one pair."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("x and y must share a dimension")
    d = x - y
    return float(x @ x + y @ y), float(d @ d), x.size


def kernel_K(sigma: float, x, y, rel_tol: float = REL_TOL) -> KernelValue:
    """Subordinated kernel K_sigma(x,y), sigma in (0,2), x != y.

    Raises ToleranceError when the error bound exceeds rel_tol * value.
    """
    if not 0 < rel_tol <= 1e-2:
        raise ValueError("rel_tol must lie in (0, 1e-2]")
    sq, rsq, n_dim = _pair_stats(x, y)
    if not 0 < sigma < 2:
        raise ValueError(f"sigma must lie in (0,2), got {sigma}")
    vals, errs = kernel_batch(sigma, sq=np.array([sq]), rsq=np.array([rsq]),
                              n_dim=n_dim)
    value, error = float(vals[0]), float(errs[0])
    if error > rel_tol * value:
        raise ToleranceError(
            f"kernel_K error bound {error:.3e} exceeds rel_tol*value",
            value=value, error_bound=error,
        )
    return KernelValue(value, error)


def kernel_upper_bound_radial(sigma, r: float, n_dim: int):
    """Decreasing radial majorant: the kernel bound at separation r > 0.

    The subordination integral at |x|^2 + |y|^2 = 0, value plus error so
    that the quadrature leaves it a bound.  ``sigma`` may be an array of
    indices, evaluated in one pass; the result then has its shape.
    """
    if not np.all((0 < np.asarray(sigma)) & (np.asarray(sigma) < 2)):
        raise ValueError(f"sigma must lie in (0,2), got {sigma}")
    value, error = kernel_sums(
        np.atleast_1d(sigma), n_pairs=1, n_dim=n_dim,
        pairs=lambda idx: (np.zeros(1), np.full(1, r * r), np.ones(1)))
    return float(value[0] + error[0]) if np.ndim(sigma) == 0 else value + error


def kernel_upper_bound(sigma: float, x, y) -> float:
    """Pointwise majorant e^{|x|^2/4} e^{|y|^2/4} K~_sigma(|x-y|)."""
    sq, rsq, n_dim = _pair_stats(x, y)
    return math.exp(sq / 4.0) * kernel_upper_bound_radial(
        sigma, math.sqrt(rsq), n_dim
    )


def kernel_lower_bound(sigma: float, x, y) -> float:
    """Pointwise minorant 2^{sigma + N/2} Gamma((sigma + N)/2) / r^{N + sigma}.

    The constant is exact in the r -> 0 limit, where the Mehler kernel
    degenerates to the Euclidean heat kernel; it remains a global lower
    bound because the Mehler exponent dominates -r^2 / (4t).
    """
    if not 0 < sigma < 2:
        raise ValueError(f"sigma must lie in (0,2), got {sigma}")
    _, rsq, n_dim = _pair_stats(x, y)
    if rsq == 0.0:
        raise SingularInputError("lower bound diverges at x = y")
    const = 2.0 ** (sigma + n_dim / 2.0) * math.gamma((sigma + n_dim) / 2.0)
    return const / rsq ** ((n_dim + sigma) / 2.0)
