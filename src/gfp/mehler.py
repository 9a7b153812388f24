"""Ornstein-Uhlenbeck transition kernel and its time-subordinated integral.

The transition kernel relative to the Gaussian measure is

    M_t(x,y) = (1-e^{-2t})^{-N/2}
               exp(-[e^{-2t}|x|^2 - 2e^{-t} x.y + e^{-2t}|y|^2] / [2(1-e^{-2t})])

and the jump kernel of the fractional operator is the subordination
integral K_sigma(x,y) = int_0^inf M_t(x,y) t^{-sigma/2-1} dt.

Evaluation strategy: one routine, kernel_batch, serves both a single
pair and the interaction engine's batches.  Log-time substitution
removes the Gauss-Weierstrass spike at t -> 0+ (the integrand becomes a
smooth bump in v = log t), which a fixed-step Simpson rule integrates up
to t = T with its half-grid difference as error estimate; the far tail
t > T is analytic up to the certified deviation of M_t from 1, which is
folded into the reported error bound.
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


def mehler(t: float, x, y) -> float:
    """Transition kernel M_t(x,y); stable down to t ~ 1e-300 and up to t -> inf."""
    if not t > 0:
        raise ValueError(f"mehler requires t > 0, got {t}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("x and y must share a dimension")
    d = x - y
    lp, c_r, c_s = _mehler_coeffs(t, x.size)
    expo = lp + c_r * (d @ d) + c_s * (x @ x + y @ y)
    return math.exp(max(expo, _LOG_SAFE_MIN))


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


def _tail_term(sigma: float, rsq: np.ndarray, sq: np.ndarray, n_dim: int):
    """Analytic tail int_T^inf t^{-sigma/2-1} dt and, per pair, its |M_t - 1| defect.

    The deviation is certified per pair by probing t = T, 2T, 4T and
    checking monotone decay (it always holds at T >= 40 for desk-scale
    points; a failed check inflates the bound instead of trusting it).
    """
    bigt = _TAIL_TIME
    tail = (2.0 / sigma) * bigt ** (-sigma / 2.0)
    probes = []
    for tt in (bigt, 2.0 * bigt, 4.0 * bigt):
        lp, c_r, c_s = _mehler_coeffs(tt, n_dim)
        probes.append(np.abs(np.expm1(lp + c_r * rsq + c_s * sq)))
    eps = np.max(probes, axis=0)
    monotone = (probes[0] >= probes[1]) & (probes[1] >= probes[2])
    return tail, tail * np.where(monotone, eps, 10.0 * eps)


def _simpson_weights(n_nodes: int, h: float) -> np.ndarray:
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def kernel_batch(
    sigma: float,
    *,
    sq: np.ndarray,
    rsq: np.ndarray,
    n_dim: int,
) -> tuple[np.ndarray, np.ndarray]:
    """K_sigma for many pairs at once, given |x|^2+|y|^2 and |x-y|^2.

    Pairs are bucketed by separation so the log-time grid of each bucket
    only spans the region where its integrands live.  Returns (values,
    error bounds); the error combines the Simpson half-grid comparison
    with the analytic-tail defect.
    """
    sq = np.asarray(sq, dtype=float).ravel()
    rsq = np.asarray(rsq, dtype=float).ravel()
    if np.any(rsq <= 0.0):
        raise SingularInputError("the subordinated kernel is singular at x = y")
    out = np.empty_like(rsq)
    err = np.empty_like(rsq)
    tail, tail_err = _tail_term(sigma, rsq, sq, n_dim)

    vmax = math.log(_TAIL_TIME)
    buckets = np.floor(np.log2(rsq) / 4.0).astype(int)  # factor-16 bands in r^2
    for b in np.unique(buckets):
        idx = np.nonzero(buckets == b)[0]
        t0 = _t_floor(float(rsq[idx].min()), float(sq[idx].max()), n_dim)
        vmin = math.log(t0)
        n_panels = max(8, int(math.ceil((vmax - vmin) / _LOG_STEP)))
        n_panels += (-n_panels) % 4  # multiple of 4: half grid is Simpson too
        vs = np.linspace(vmin, vmax, n_panels + 1)
        h = vs[1] - vs[0]
        w_fine = _simpson_weights(n_panels + 1, h)
        w_half = np.zeros(n_panels + 1)
        w_half[::2] = _simpson_weights(n_panels // 2 + 1, 2.0 * h)

        s_fine = np.zeros(idx.size)
        s_half = np.zeros(idx.size)
        rsq_b, sq_b = rsq[idx], sq[idx]
        for j, v in enumerate(vs):
            t = math.exp(v)
            lp, c_r, c_s = _mehler_coeffs(t, n_dim)
            g = np.exp(
                np.maximum(lp - 0.5 * sigma * v + c_r * rsq_b + c_s * sq_b,
                           _LOG_SAFE_MIN)
            )
            s_fine += w_fine[j] * g
            s_half += w_half[j] * g
        out[idx] = s_fine + tail
        err[idx] = np.abs(s_fine - s_half) / 15.0 + tail_err[idx]
    err += out * 1e-13  # neglected sliver below the time floor
    return out, err


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


def _subordinated_pair(sigma: float, sq: float, rsq: float,
                       n_dim: int) -> tuple[float, float]:
    """kernel_batch on one pair: (value, error bound)."""
    if not 0 < sigma < 2:
        raise ValueError(f"sigma must lie in (0,2), got {sigma}")
    vals, errs = kernel_batch(sigma, sq=np.array([sq]), rsq=np.array([rsq]),
                              n_dim=n_dim)
    return float(vals[0]), float(errs[0])


def kernel_K(sigma: float, x, y, rel_tol: float = REL_TOL) -> KernelValue:
    """Subordinated kernel K_sigma(x,y), sigma in (0,2), x != y.

    Raises ToleranceError when the error bound exceeds rel_tol * value.
    """
    if not 0 < rel_tol <= 1e-2:
        raise ValueError("rel_tol must lie in (0, 1e-2]")
    sq, rsq, n_dim = _pair_stats(x, y)
    value, error = _subordinated_pair(sigma, sq, rsq, n_dim)
    if error > rel_tol * value:
        raise ToleranceError(
            f"kernel_K error bound {error:.3e} exceeds rel_tol*value",
            value=value, error_bound=error,
        )
    return KernelValue(value, error)


def kernel_upper_bound_radial(sigma: float, r: float, n_dim: int) -> float:
    """Decreasing radial majorant: the kernel bound at separation r > 0.

    The subordination integral at |x|^2 + |y|^2 = 0, value plus error so
    that the quadrature leaves it a bound.
    """
    value, error = _subordinated_pair(sigma, 0.0, r * r, n_dim)
    return value + error


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
