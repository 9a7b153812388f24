"""Hermite machinery in L^2 of the Gaussian measure.

The orthonormal eigenbasis of the (negative) Ornstein-Uhlenbeck operator
consists of probabilists' Hermite polynomials scaled by 1/sqrt(alpha!);
the eigenvalue of a basis element is its total degree.  On top of the
expansion we get the spectral form of the squared Sobolev seminorm,

    s [u]_s^2 = 2 Gamma(1-s) sum_{|alpha|>=1} |alpha|^s c_alpha^2,

its explicit small-s limit 2(||u||^2 - c_0^2), and the fractional
operator acting diagonally with factor |Gamma(-s)| |alpha|^s.

Indicator coefficients come from the exact endpoint identity
int_a^inf He_n dgamma = He_{n-1}(a) phi(a) (phi the 1-D Gaussian
density), evaluated through the normalized recurrence so degrees up to
10^5 stay in range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sets
from .errors import DimensionMismatchError
from .measure import (_gauss_rule, abs_gamma_neg, gamma_fn, std_normal_cdf,
                      std_normal_pdf)

_DEGREE_CAP = 200          # per-coordinate cap for pointwise evaluation
_QUAD_EXPAND_CAP = 500     # beyond this, quadrature expansion is refused


def _normalized_hermite_series(x: float, n_max: int) -> np.ndarray:
    """h_0(x)..h_{n_max}(x) with h_n = He_n / sqrt(n!).

    The normalized three-term recurrence
    h_{n+1} = (x h_n - sqrt(n) h_{n-1}) / sqrt(n+1) keeps values O(n^-1/4)
    at fixed x, so large degrees neither overflow nor lose the forward
    stability of the oscillatory regime.
    """
    h = np.empty(n_max + 1)
    h[0] = 1.0
    if n_max == 0:
        return h
    h[1] = x
    for n in range(1, n_max):
        h[n + 1] = (x * h[n] - math.sqrt(n) * h[n - 1]) / math.sqrt(n + 1)
    return h


def hermite_value(alpha, x) -> float:
    """Orthonormal Hermite basis element at a point: prod_i He_{a_i}(x_i)/sqrt(a_i!)."""
    alpha = tuple(int(a) for a in np.atleast_1d(alpha))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(alpha) != x.size:
        raise DimensionMismatchError("multi-index and point dimensions differ")
    if any(a < 0 for a in alpha):
        raise ValueError("multi-index entries must be nonnegative")
    if any(a > _DEGREE_CAP for a in alpha):
        raise ValueError(f"per-coordinate degree cap {_DEGREE_CAP} exceeded")
    out = 1.0
    for a, xi in zip(alpha, x):
        out *= _normalized_hermite_series(xi, a)[a]
    return out


@dataclass(frozen=True)
class HermiteExpansion:
    """Truncated coefficient table against the orthonormal Hermite basis.

    ``alphas`` has shape (M, N); ``coeffs`` shape (M,).  ``tail_bound``
    estimates the squared mass sum of the discarded modes, obtained as
    the Parseval defect against an independently computed norm.
    """

    dimension: int
    degree: int
    alphas: np.ndarray
    coeffs: np.ndarray
    tail_bound: float

    def __post_init__(self):
        if self.alphas.shape != (self.coeffs.size, self.dimension):
            raise ValueError("alphas/coeffs shape mismatch")

    @property
    def total_degrees(self) -> np.ndarray:
        return self.alphas.sum(axis=1)

    def coefficient(self, alpha) -> float:
        alpha = np.atleast_1d(np.asarray(alpha, dtype=int))
        hit = np.all(self.alphas == alpha, axis=1)
        return float(self.coeffs[hit].sum())

    @classmethod
    def from_coefficients(cls, entries: dict, dimension: int,
                          tail_bound: float = 0.0) -> "HermiteExpansion":
        """Build from {multi-index tuple: coefficient}."""
        alphas = np.array([list(np.atleast_1d(a)) for a in entries], dtype=int)
        if alphas.size == 0:
            alphas = alphas.reshape(0, dimension)
        coeffs = np.array([entries[a] for a in entries], dtype=float)
        degree = int(alphas.sum(axis=1).max()) if coeffs.size else 0
        return cls(dimension, degree, alphas, coeffs, tail_bound)


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def _indicator_coefficients(ivs, degree: int) -> np.ndarray:
    """Exact coefficients of a 1-D interval-union indicator up to ``degree``.

    c_n = sum_i [He_{n-1}(a_i) phi(a_i) - He_{n-1}(b_i) phi(b_i)] / sqrt(n)
    for n >= 1; c_0 is the Gaussian mass.  Infinite endpoints contribute 0.
    """
    coeffs = np.zeros(degree + 1)
    for a, b in ivs:
        coeffs[0] += std_normal_cdf(b) - std_normal_cdf(a)
        for pt, sign in ((a, +1.0), (b, -1.0)):
            if math.isfinite(pt):
                h = _normalized_hermite_series(pt, degree - 1) if degree >= 1 else None
                if h is not None:
                    n = np.arange(1, degree + 1)
                    # h_{n-1}(pt) * sqrt((n-1)!/n!) = h_{n-1}(pt)/sqrt(n)
                    coeffs[1:] += sign * std_normal_pdf(pt) * h / np.sqrt(n)
    return coeffs


def expand(u, degree: int, dim: int = 1) -> HermiteExpansion:
    """Hermite coefficients of a function or indicator up to total degree.

    Interval-union indicators use the exact endpoint identity (any degree);
    callables use Gauss-Hermite quadrature of order >= 2*degree, refused
    above degree 500 where oscillatory integrands defeat quadrature.
    1-D only; higher-dimensional expansions are assembled via
    ``HermiteExpansion.from_coefficients``.
    """
    if dim != 1:
        raise NotImplementedError("expand supports N = 1")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    alphas = np.arange(degree + 1, dtype=int).reshape(-1, 1)
    if isinstance(u, sets.SetExpr):
        ivs = sets.to_intervals(u)
        coeffs = _indicator_coefficients(ivs, degree)
        norm_sq = float(coeffs[0])  # indicator: ||u||^2 = gamma(E) = c_0
        tail = max(norm_sq - float(coeffs @ coeffs), 0.0)
        return HermiteExpansion(1, degree, alphas, coeffs, tail)
    if degree > _QUAD_EXPAND_CAP:
        raise ValueError(
            f"quadrature expansion refused above degree {_QUAD_EXPAND_CAP}; "
            "oscillatory integrands make large-degree coefficients silently wrong"
        )
    nodes, weights = _gauss_rule(max(2 * degree + 1, 64))
    vals = np.asarray(u(nodes.reshape(-1, 1)), dtype=float).ravel()
    table = np.stack([_normalized_hermite_series(xi, degree) for xi in nodes])
    coeffs = table.T @ (weights * vals)
    norm_sq = float(weights @ vals ** 2)
    tail = max(norm_sq - float(coeffs @ coeffs), 0.0)
    return HermiteExpansion(1, degree, alphas, coeffs, tail)


# ---------------------------------------------------------------------------
# spectral functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralSeminorm:
    s: float
    value: float
    truncation: float


def spectral_seminorm_sq(exp: HermiteExpansion, s: float) -> SpectralSeminorm:
    """Squared seminorm from the eigenvalue series.

    value = (2 Gamma(1-s) / s) sum_{|alpha|>=1} |alpha|^s c_alpha^2.
    The truncation term estimates the missing (2 Gamma(1-s) / s)
    sum_{n>N} n^s c_n^2 from the Parseval defect R_N = sum_{n>N} c_n^2.
    For s < 1/2 it assumes the decay of an indicator, c_n^2 ~ n^(-3/2):
    then R_n ~ n^(-1/2), summation by parts gives the tail as
    R_N (N+1)^s / (1 - 2s) to leading order, and the factor
    1 + (N+1)^(-1/2) covers the next order (the excess over the leading
    term stays below 0.46 (N+1)^(-1/2) on half-lines, intervals and
    complements).  For s >= 1/2 the indicator seminorm is infinite and
    the term is R_N (N+1)^s, the first missing eigenvalue power, a lower
    estimate.  Heuristic either way: a genuine bound needs a coefficient
    decay certificate.
    """
    if not 0 < s < 1:
        raise ValueError(f"s must lie in (0,1), got {s}")
    deg = exp.total_degrees
    pos = deg >= 1
    series = float(np.sum(deg[pos] ** float(s) * exp.coeffs[pos] ** 2))
    pref = 2.0 * gamma_fn(1.0 - s) / s
    first = float(exp.degree + 1)
    trunc = pref * exp.tail_bound * first ** s
    if s < 0.5:
        trunc *= (1.0 + first ** -0.5) / (1.0 - 2.0 * s)
    return SpectralSeminorm(s, pref * series, trunc)


def ms_limit(exp: HermiteExpansion) -> float:
    """Small-s limit of s times the squared seminorm: 2(||u||^2 - c_0^2)."""
    deg = exp.total_degrees
    pos = deg >= 1
    return 2.0 * (float(exp.coeffs[pos] @ exp.coeffs[pos]) + exp.tail_bound)


def apply_frac_ou(exp: HermiteExpansion, s: float) -> HermiteExpansion:
    """Fractional Ornstein-Uhlenbeck operator acting diagonally.

    c_alpha -> |Gamma(-s)| |alpha|^s c_alpha for |alpha| >= 1; the constant
    mode (eigenvalue 0) is annihilated.
    """
    if not 0 < s < 1:
        raise ValueError(f"s must lie in (0,1), got {s}")
    deg = exp.total_degrees
    factor = np.where(deg >= 1, abs_gamma_neg(s) * deg.astype(float) ** s, 0.0)
    tail = exp.tail_bound * (abs_gamma_neg(s) * float(exp.degree + 1) ** s) ** 2
    return HermiteExpansion(
        exp.dimension, exp.degree, exp.alphas, exp.coeffs * factor, tail
    )
