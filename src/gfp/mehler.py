"""Ornstein-Uhlenbeck transition kernel and its time-subordinated integral.

The transition kernel relative to the Gaussian measure is

    M_t(x,y) = (1-e^{-2t})^{-N/2}
               exp(-[e^{-2t}|x|^2 - 2e^{-t} x.y + e^{-2t}|y|^2] / [2(1-e^{-2t})])

and the jump kernel of the fractional operator is the subordination
integral K_sigma(x,y) = int_0^inf M_t(x,y) t^{-sigma/2-1} dt.

Evaluation strategy: log-time substitution removes the Gauss-Weierstrass
spike at t -> 0+ (the integrand becomes a smooth bump in v = log t), the
mid range is integrated adaptively, and the far tail t > T is analytic
up to the certified deviation of M_t from 1, which is folded into the
reported error bound.  A vectorized fixed-grid Simpson variant serves the
interaction engine, with a Richardson half-grid comparison as its error
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.integrate import quad

from .errors import SingularInputError, ToleranceError

_LOG_SAFE_MIN = -690.0  # exp() underflow guard

# The subordination time integral: log-substituted near field on
# (0, _SPLIT_TIME], adaptive far field up to _TAIL_TIME, analytic tail beyond;
# _LOG_STEP is the grid spacing of the vectorized Simpson path.
_SPLIT_TIME = 1.0
_TAIL_TIME = 40.0
_LOG_STEP = 0.01
REL_TOL = 1e-8  # default relative tolerance of the scalar kernel


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


def _log_mehler_minus_one(t: float, rsq: np.ndarray, sq: np.ndarray, n_dim: int):
    """|M_t - 1| evaluated through log M_t for large t (cancellation-safe)."""
    lp, c_r, c_s = _mehler_coeffs(t, n_dim)
    ln_m = lp + c_r * rsq + c_s * sq
    return np.abs(np.expm1(ln_m))


def semigroup_mass(t: float, x, order: int = 160) -> float:
    """Gauss-Hermite value of int M_t(x, .) dgamma; equals 1 analytically."""
    if not t > 0:
        raise ValueError("t must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_dim = x.size
    z, w = hermgauss(order)
    nodes = math.sqrt(2.0) * z
    weights = w / math.sqrt(math.pi)
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
# scalar subordinated kernel
# ---------------------------------------------------------------------------

def _pair_stats(x, y) -> tuple[float, float, float, int]:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("x and y must share a dimension")
    d = x - y
    return float(x @ x + y @ y), float(x @ y), float(d @ d), x.size


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


def _tail_term(sigma: float, rsq: float, sq: float, n_dim: int, bigt: float):
    """Analytic tail int_T^inf t^{-sigma/2-1} dt with the |M_t - 1| defect.

    The deviation is certified per call by probing t = T, 2T, 4T and
    checking monotone decay (it always holds at T >= 40 for desk-scale
    points; a failed check inflates the bound instead of trusting it).
    """
    tail = (2.0 / sigma) * bigt ** (-sigma / 2.0)
    probes = [
        float(_log_mehler_minus_one(tt, np.asarray(rsq), np.asarray(sq), n_dim))
        for tt in (bigt, 2.0 * bigt, 4.0 * bigt)
    ]
    eps = max(probes)
    if not (probes[0] >= probes[1] >= probes[2]):
        eps *= 10.0
    return tail, tail * eps


def _subordinate(sigma: float, rsq: float, sq: float, n_dim: int,
                 rel_tol: float) -> tuple[float, float]:
    """int_0^inf exp(log M_t) t^{-sigma/2-1} dt for one pair, with its error.

    Three pieces: log-substituted near field on (0, _SPLIT_TIME], adaptive
    far field on (_SPLIT_TIME, _TAIL_TIME], analytic tail beyond.
    """
    def integrand_t(t: float) -> float:
        lp, c_r, c_s = _mehler_coeffs(t, n_dim)
        expo = lp + c_r * rsq + c_s * sq - (sigma / 2.0 + 1.0) * math.log(t)
        return math.exp(max(expo, _LOG_SAFE_MIN))

    # v = log t: the Gauss-Weierstrass spike becomes a smooth bump
    def integrand_v(v: float) -> float:
        t = math.exp(v)
        return integrand_t(t) * t

    t0 = _t_floor(rsq, sq, n_dim)
    eps_quad = max(rel_tol * 1e-3, 1e-13)  # QUADPACK floor
    near, err_near = quad(
        integrand_v, math.log(t0), math.log(_SPLIT_TIME),
        epsabs=0.0, epsrel=eps_quad, limit=400,
    )
    far, err_far = quad(
        integrand_t, _SPLIT_TIME, _TAIL_TIME,
        epsabs=0.0, epsrel=eps_quad, limit=400,
    )
    tail, err_tail = _tail_term(sigma, rsq, sq, n_dim, _TAIL_TIME)
    value = near + far + tail
    return value, err_near + err_far + err_tail + value * 1e-14


def kernel_K(sigma: float, x, y, rel_tol: float = REL_TOL) -> KernelValue:
    """Subordinated kernel K_sigma(x,y), sigma in (0,2), x != y.

    Raises ToleranceError when the error bound exceeds rel_tol * value.
    """
    if not 0 < sigma < 2:
        raise ValueError(f"sigma must lie in (0,2), got {sigma}")
    if not 0 < rel_tol <= 1e-2:
        raise ValueError("rel_tol must lie in (0, 1e-2]")
    sq, _, rsq, n_dim = _pair_stats(x, y)
    if rsq == 0.0:
        raise SingularInputError("kernel_K is singular at x = y")
    value, error = _subordinate(sigma, rsq, sq, n_dim, rel_tol)
    if error > rel_tol * value:
        raise ToleranceError(
            f"kernel_K error bound {error:.3e} exceeds rel_tol*value",
            value=value, error_bound=error,
        )
    return KernelValue(value, error)


# ---------------------------------------------------------------------------
# radial upper bound
# ---------------------------------------------------------------------------

def kernel_upper_bound_radial(sigma: float, r: float, n_dim: int) -> float:
    """Decreasing radial majorant: the kernel bound at separation r >= 0.

    The subordination integral at |x|^2 + |y|^2 = 0, value plus error so
    that the quadrature leaves it a bound.
    """
    if not 0 < sigma < 2:
        raise ValueError(f"sigma must lie in (0,2), got {sigma}")
    if r == 0.0:
        raise SingularInputError("radial bound diverges at r = 0")
    value, error = _subordinate(sigma, r * r, 0.0, n_dim, REL_TOL)
    return value + error


def kernel_upper_bound(sigma: float, x, y) -> float:
    """Pointwise majorant e^{|x|^2/4} e^{|y|^2/4} K~_sigma(|x-y|)."""
    sq, _, rsq, n_dim = _pair_stats(x, y)
    if rsq == 0.0:
        raise SingularInputError("kernel bound diverges at x = y")
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
    _, _, rsq, n_dim = _pair_stats(x, y)
    if rsq == 0.0:
        raise SingularInputError("lower bound diverges at x = y")
    const = 2.0 ** (sigma + n_dim / 2.0) * math.gamma((sigma + n_dim) / 2.0)
    return const / rsq ** ((n_dim + sigma) / 2.0)


# ---------------------------------------------------------------------------
# vectorized kernel for the interaction engine
# ---------------------------------------------------------------------------

def _simpson_weights(n_nodes: int, h: float) -> np.ndarray:
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def kernel_batch(
    sigma: float,
    sq: np.ndarray,
    xy: np.ndarray,
    rsq: np.ndarray,
    n_dim: int,
) -> tuple[np.ndarray, np.ndarray]:
    """K_sigma for many pairs at once, given |x|^2+|y|^2, x.y and |x-y|^2.

    Pairs are bucketed by separation so the log-time grid of each bucket
    only spans the region where its integrands live.  Returns (values,
    error bounds); the error combines the Simpson half-grid comparison
    with the analytic-tail defect.
    """
    sq = np.asarray(sq, dtype=float).ravel()
    xy = np.asarray(xy, dtype=float).ravel()
    rsq = np.asarray(rsq, dtype=float).ravel()
    if np.any(rsq <= 0.0):
        raise SingularInputError("kernel_batch requires x != y for every pair")
    out = np.empty_like(rsq)
    err = np.empty_like(rsq)

    bigt = _TAIL_TIME
    tail = (2.0 / sigma) * bigt ** (-sigma / 2.0)
    eps = np.zeros_like(rsq)
    for tt in (bigt, 2.0 * bigt, 4.0 * bigt):
        eps = np.maximum(eps, _log_mehler_minus_one(tt, rsq, sq, n_dim))
    tail_err = tail * eps

    vmax = math.log(bigt)
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
