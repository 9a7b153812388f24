"""Hermite machinery in L^2 of the 1-D Gaussian measure.

The orthonormal eigenbasis of the (negative) Ornstein-Uhlenbeck operator
consists of probabilists' Hermite polynomials h_n = He_n / sqrt(n!), with
eigenvalue n.  On top of the expansion we get the spectral form of the
squared Sobolev seminorm,

    s [u]_s^2 = 2 Gamma(1-s) sum_{n>=1} n^s c_n^2,

its explicit small-s limit 2(||u||^2 - c_0^2), and the fractional
operator acting diagonally with factor |Gamma(-s)| n^s.

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
from .measure import (_gauss_rule, _normalized_hermite_series, abs_gamma_neg,
                      gamma_fn, std_normal_cdf)

_QUAD_EXPAND_CAP = 300     # beyond this, quadrature expansion is refused


@dataclass(frozen=True)
class HermiteExpansion:
    """Truncated 1-D coefficient table against the orthonormal Hermite basis.

    ``coeffs[n]`` belongs to h_n = He_n / sqrt(n!), whose eigenvalue is n.
    ``tail_bound`` estimates the squared mass sum of the discarded modes,
    obtained as the Parseval defect against an independently computed norm.
    """

    coeffs: np.ndarray
    tail_bound: float = 0.0


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def _indicator_coefficients(ivs, degree: int) -> np.ndarray:
    """Exact coefficients of a 1-D interval-union indicator up to ``degree``.

    c_n = sum_i [He_{n-1}(a_i) phi(a_i) - He_{n-1}(b_i) phi(b_i)] / sqrt(n)
    for n >= 1; c_0 is the Gaussian mass.  Infinite endpoints contribute 0.
    """
    coeffs, n = np.zeros(degree + 1), np.arange(1, degree + 1)
    for a, b in ivs:
        coeffs[0] += std_normal_cdf(b) - std_normal_cdf(a)
        for pt, sign in ((a, +1.0), (b, -1.0)):
            if math.isfinite(pt) and degree >= 1:
                h = _normalized_hermite_series(pt, degree - 1)
                # h_{n-1}(pt) * sqrt((n-1)!/n!) = h_{n-1}(pt)/sqrt(n)
                phi = math.exp(-0.5 * pt * pt) / math.sqrt(2.0 * math.pi)
                coeffs[1:] += sign * phi * h / np.sqrt(n)
    return coeffs


def expand(u, degree: int) -> HermiteExpansion:
    """Hermite coefficients of a 1-D function or indicator up to ``degree``.

    Interval-union indicators use the exact endpoint identity (any degree);
    callables use Gauss-Hermite quadrature of order >= 2*degree, refused
    above degree 300, the largest one a coefficient test verifies.
    Coefficients whose squares sum past the norm (a Parseval defect below
    -1e-12 ||u||^2, or NaN) are wrong, and raise ValueError too.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if isinstance(u, sets.SetExpr):
        coeffs = _indicator_coefficients(sets.to_intervals(u), degree)
        norm_sq = float(coeffs[0])  # indicator: ||u||^2 = gamma(E) = c_0
    elif degree > _QUAD_EXPAND_CAP:
        raise ValueError(f"quadrature expansion refused above degree "
                         f"{_QUAD_EXPAND_CAP}: no test verifies the rule beyond")
    else:
        nodes, weights = _gauss_rule(max(2 * degree + 1, 64))
        vals = np.asarray(u(nodes.reshape(-1, 1)), dtype=float).ravel()
        coeffs = _normalized_hermite_series(nodes, degree) @ (weights * vals)
        norm_sq = float(weights @ vals ** 2)
    defect = norm_sq - float(coeffs @ coeffs)
    if not defect >= -1e-12 * norm_sq:   # NaN too
        raise ValueError(f"Parseval defect {defect:.3g} < 0 at degree "
                         f"{degree}: the coefficients are wrong")
    return HermiteExpansion(coeffs, max(defect, 0.0))


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

    value = (2 Gamma(1-s) / s) sum_{n>=1} n^s c_n^2.
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
    deg = np.arange(exp.coeffs.size)
    series = float(np.sum(deg[1:] ** float(s) * exp.coeffs[1:] ** 2))
    pref = 2.0 * gamma_fn(1.0 - s) / s
    first = float(exp.coeffs.size)   # the first discarded degree
    trunc = pref * exp.tail_bound * first ** s
    if s < 0.5:
        trunc *= (1.0 + first ** -0.5) / (1.0 - 2.0 * s)
    return SpectralSeminorm(s, pref * series, trunc)


def ms_limit(exp: HermiteExpansion) -> float:
    """Small-s limit of s times the squared seminorm: 2(||u||^2 - c_0^2)."""
    c = exp.coeffs[1:]
    return 2.0 * (float(c @ c) + exp.tail_bound)


def apply_frac_ou(exp: HermiteExpansion, s: float) -> HermiteExpansion:
    """Fractional Ornstein-Uhlenbeck operator acting diagonally.

    c_n -> |Gamma(-s)| n^s c_n; the constant mode (eigenvalue 0) is
    annihilated.  abs_gamma_neg refuses s outside (0, 1).
    """
    factor = abs_gamma_neg(s) * np.arange(exp.coeffs.size, dtype=float) ** s
    tail = exp.tail_bound * (abs_gamma_neg(s) * float(exp.coeffs.size) ** s) ** 2
    return HermiteExpansion(exp.coeffs * factor, tail)
