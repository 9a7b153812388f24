"""Ornstein-Uhlenbeck transition kernel and its time-subordinated integral.

The transition kernel relative to the Gaussian measure is

    M_t(x,y) = (1-e^{-2t})^{-N/2}
               exp(-[e^{-2t}|x|^2 - 2e^{-t} x.y + e^{-2t}|y|^2] / [2(1-e^{-2t})])

and the jump kernel of the fractional operator is the subordination
integral K_sigma(x,y) = int_0^inf M_t(x,y) t^{-sigma/2-1} dt.

Evaluation strategy: one routine, _subordinate, serves a single pair,
kernel_batch and the weighted sums of kernel_sums, for one index sigma
or many, sharing the sigma-free part of the integrand.  Log-time
substitution removes the Gauss-Weierstrass spike at t -> 0+ (the
integrand becomes a smooth bump in v = log t), which a fixed-step
Simpson rule integrates up to t = T with its half-grid difference plus
the rounding of the sum as error estimate; the far tail t > T is
analytic up to the certified deviation of M_t from 1, which is folded
into the reported error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularInputError, ToleranceError
from .measure import _gauss_rule

_LOG_SAFE_MIN = -690.0  # exp() underflow guard

# The subordination time integral: Simpson's rule in v = log t with step
# _LOG_STEP up to _TAIL_TIME, analytic tail beyond.
_TAIL_TIME = 40.0
_LOG_STEP = 0.01
_BLOCK = 32768  # pairs per block wherever no per-pair array is kept
REL_TOL = 1e-8  # kernel_K's default: a larger relative error bound raises


@dataclass(frozen=True)
class KernelValue:
    value: float
    error_bound: float


# ---------------------------------------------------------------------------
# Mehler kernel
# ---------------------------------------------------------------------------

def _mehler_coeffs(t: float, n_dim: int) -> tuple[float, float, float]:
    """(log-prefactor, coefficient of |x-y|^2, coefficient of |x|^2+|y|^2).

    log M_t = lp + c_r |x-y|^2 + c_s (|x|^2+|y|^2) with c_r = -e^-t/(2(1-e^-2t))
    and c_s = e^-t/(2(1+e^-t)).  Unlike the textbook grouping by |x|^2+|y|^2
    and x.y, these two terms never cancel catastrophically, so the exponent
    stays accurate for nearly coincident points far from the origin.
    """
    a = math.exp(-t)
    em = -math.expm1(-2.0 * t)  # 1 - e^{-2t}, accurate for small t
    return -0.5 * n_dim * math.log(em), -a / (2.0 * em), a / (2.0 * (1.0 + a))


def semigroup_mass(t: float, x, order: int = 160) -> float:
    """Gauss-Hermite value of int M_t(x, .) dgamma; equals 1 analytically."""
    if not t > 0:
        raise ValueError("t must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_dim = x.size
    nodes, weights = _gauss_rule(order)
    grids = np.meshgrid(*([nodes] * n_dim), indexing="ij")
    y = np.stack([g.ravel() for g in grids], axis=-1)
    wprod = np.ones(y.shape[0])
    for k, g in enumerate(np.meshgrid(*([weights] * n_dim), indexing="ij")):
        wprod *= g.ravel()
    lp, c_r, c_s = _mehler_coeffs(t, n_dim)
    sq = float(x @ x) + np.einsum("ij,ij->i", y, y)
    rsq = np.einsum("ij,ij->i", y - x, y - x)
    vals = np.exp(np.maximum(lp + c_r * rsq + c_s * sq, _LOG_SAFE_MIN))
    return float(vals @ wprod)


# ---------------------------------------------------------------------------
# the subordination integral
# ---------------------------------------------------------------------------

def _t_floor(rsq: float, sq: float, n_dim: int) -> float:
    """Time below which the integrand is provably negligible (rel ~ e^-120).

    Uses exp(phi_t) <= exp(-r^2/(4 sinh t) + (|x|^2+|y|^2)/4) and inflates
    the cut to absorb the algebraic prefactor growth.
    """
    cut = 120.0 + sq / 4.0
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
    probes = []
    for tt in (_TAIL_TIME, 2.0 * _TAIL_TIME, 4.0 * _TAIL_TIME):
        lp, c_r, c_s = _mehler_coeffs(tt, n_dim)
        probes.append(np.abs(np.expm1(lp + c_r * rsq + c_s * sq)))
    eps = np.max(probes, axis=0)
    monotone = (probes[0] >= probes[1]) & (probes[1] >= probes[2])
    return np.where(monotone, eps, 10.0 * eps)


def _simpson_weights(n_nodes: int, h: float) -> np.ndarray:
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _subordinate(sigmas, n_pairs: int, pairs, n_dim: int, block: int):
    """The one subordination rule, for every index in ``sigmas`` at once.

    ``pairs(idx)`` returns (|x|^2+|y|^2, |x-y|^2, weight) of the pairs
    with indices ``idx``; the weight is only handed back.  Pairs are
    banded by separation so that the log-time grid of each band only
    spans the region where its integrands live, and worked through in
    blocks of at most ``block`` pairs.  Per time node the sigma-free
    exponent and its exp are computed once for every index.  Yields
    (idx, weight, values, errors) per block, values and errors of shape
    (len(sigmas), len(idx)); the error adds the Simpson half-grid
    comparison, the analytic-tail defect and the rounding of the sum.
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
        band[idx] = np.floor(np.log2(rsq) / 4.0)  # factor-16 bands in r^2
    tail = (2.0 / sigmas) * _TAIL_TIME ** (-0.5 * sigmas)
    vmax = math.log(_TAIL_TIME)
    for b in range(band.min(), band.max() + 1):
        members = np.flatnonzero(band == b)
        blocks = [members[lo:lo + block]
                  for lo in range(0, members.size, block)]
        if not blocks:
            continue
        vmin = math.log(_t_floor(
            min(float(pairs(idx)[1].min()) for idx in blocks),
            max(float(pairs(idx)[0].max()) for idx in blocks), n_dim))
        n_panels = max(8, int(math.ceil((vmax - vmin) / _LOG_STEP)))
        n_panels += (-n_panels) % 4  # multiple of 4: half grid is Simpson too
        vs = np.linspace(vmin, vmax, n_panels + 1)
        h = vs[1] - vs[0]
        # per node and index: the Simpson weight times t^(-sigma/2)
        power = np.exp(-0.5 * np.multiply.outer(vs, sigmas))
        w_fine = _simpson_weights(n_panels + 1, h)[:, None] * power
        w_half = (_simpson_weights(n_panels // 2 + 1, 2.0 * h)[:, None]
                  * power[::2])
        coeffs = [_mehler_coeffs(math.exp(v), n_dim) for v in vs]
        for idx in blocks:
            sq, rsq, weight = pairs(idx)
            fine = np.zeros((sigmas.size, idx.size))
            half = np.zeros_like(fine)
            scratch = np.empty_like(fine)
            g = np.empty_like(rsq)
            term = np.empty_like(rsq)
            for j, (lp, c_r, c_s) in enumerate(coeffs):
                np.multiply(rsq, c_r, out=g)
                g += lp
                g += np.multiply(sq, c_s, out=term)
                np.exp(np.maximum(g, _LOG_SAFE_MIN, out=g), out=g)
                fine += np.multiply.outer(w_fine[j], g, out=scratch)
                if j % 2 == 0:
                    half += np.multiply.outer(w_half[j // 2], g, out=scratch)
            values = fine + tail[:, None]
            errors = (np.abs(fine - half) / 15.0
                      + np.multiply.outer(tail, _tail_defect(rsq, sq, n_dim)))
            errors += values * 1e-13  # neglected sliver below the time floor
            # rounding of the positive-term sum: one ulp per summed node
            errors += (n_panels + 1) * 2.0 ** -52 * fine
            yield idx, weight, values, errors


def kernel_batch(
    sigma: float,
    *,
    sq: np.ndarray,
    rsq: np.ndarray,
    n_dim: int,
) -> tuple[np.ndarray, np.ndarray]:
    """K_sigma for many pairs at once, given |x|^2+|y|^2 and |x-y|^2.

    Returns (values, error bounds), one per pair.  The output holds
    every pair anyway, so each band is one block.
    """
    sq = np.asarray(sq, dtype=float).ravel()
    rsq = np.asarray(rsq, dtype=float).ravel()
    out = np.empty_like(rsq)
    err = np.empty_like(rsq)
    for idx, _, vals, errs in _subordinate(
            np.array([float(sigma)]), rsq.size,
            lambda idx: (sq[idx], rsq[idx], None), n_dim, rsq.size):
        out[idx] = vals[0]
        err[idx] = errs[0]
    return out, err


def kernel_sums(sigmas, *, n_pairs: int, pairs,
                n_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sums of K_sigma over pairs given by index, for every sigma.

    ``pairs(idx)`` returns (|x|^2+|y|^2, |x-y|^2, weight) of the pairs
    with indices ``idx`` in range(n_pairs).  Returns, per sigma, the sums
    of weight * K and of weight * error bound, reduced block by block.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    value = np.zeros(sigmas.size)
    error = np.zeros(sigmas.size)
    for _, weight, vals, errs in _subordinate(sigmas, n_pairs, pairs, n_dim,
                                              _BLOCK):
        # pairwise sums, not a dot product: the mesh error bar is the
        # difference of two such sums and must not carry their rounding
        value += (vals * weight).sum(axis=1)
        error += (errs * weight).sum(axis=1)
    return value, error


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
