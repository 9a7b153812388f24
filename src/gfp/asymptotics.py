"""Small-s asymptotics of the renormalised fractional Gaussian perimeter.

The limit functional is the closed-form set function

    mu(E; Omega) = 2 [ gamma(E) gamma(Omega \\ E)
                       + gamma(E & Omega) gamma(E^c & Omega^c) ],

computed here from four Gaussian measures and the bounds on their errors
(zero in closed form, ~1e-14 by 2-D slices).  ``sweep`` evaluates
s * P_s(E; Omega) along a decreasing list of s values, in one call of the
perimeter route that serves every s from shared work (one quadrature
pass, or one set of Monte Carlo draws), and extrapolates to s = 0 with the model a + b s + c s^2: s * P_s is analytic in s
(splitting the time integral at t = 1 and expanding t^(-s/2) gives
mu + m_0 s + O(s^2)), so the fit is a truncated Taylor series.  The module
also exposes the non-additivity defect, a subadditivity checker with a
non-monotonicity witness, and the divergent interval-union construction
whose lower-bound series certifies an infinite perimeter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import sets
from .interaction import (InteractionEstimate, _check_disjoint, _perimeters,
                          _three_pieces, perimeter)
from .measure import MeasureEstimate, gauss_measure

DEFAULT_S_LIST = tuple(2.0 ** -k for k in range(1, 9))
_R = 3.0   # radius of the ball B_R that both lower bounds restrict to


@dataclass(frozen=True)
class LimitValue:
    """Small-s limit with its four measure components and error bound."""

    mu: float
    error: float
    components: tuple[MeasureEstimate, MeasureEstimate,
                      MeasureEstimate, MeasureEstimate]

    @property
    def method(self) -> str:
        kinds = {c.method for c in self.components}
        return "closed-form" if kinds == {"closed-form"} else "slice-quadrature"


@dataclass(frozen=True)
class SweepResult:
    """Rows of (s, s * perimeter, error) plus the extrapolation fit."""

    s_values: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    methods: tuple[str, ...]
    extrapolated_limit: float
    uncertainty: float
    fit_coefficients: tuple[float, float, float]   # (a, b, c)
    fit_residual: float

    def _rows(self):
        return zip(map(float, self.s_values), map(float, self.values),
                   map(float, self.errors), self.methods)

    def to_csv(self) -> str:
        return "s,value,error,method\n" + "".join(
            f"{s!r},{v!r},{e!r},{m}\n" for s, v, e, m in self._rows())

    def to_json(self) -> str:
        a, b, c = self.fit_coefficients
        return json.dumps({
            "rows": [{"s": s, "value": v, "error": e, "method": m}
                     for s, v, e, m in self._rows()],
            "extrapolated_limit": self.extrapolated_limit,
            "uncertainty": self.uncertainty,
            "fit": {"model": "a + b*s + c*s**2", "a": a, "b": b, "c": c,
                    "residual": self.fit_residual},
        })


# ---------------------------------------------------------------------------
# the small-s limit
# ---------------------------------------------------------------------------

def mu_limit(e: sets.SetExpr, omega: sets.SetExpr = sets.FullSpace(),
             dim: int = 1, seed: int = 0) -> LimitValue:
    """mu(E; Omega) = 2[g(E)g(Omega\\E) + g(E&Omega)g(E^c&Omega^c)].

    Deterministic: ``seed`` is unused, and stays only for the callers that
    pass it until every seed goes (ROADMAP item 14).
    """
    ec, oc = sets.complement(e), sets.complement(omega)
    # sets.intersect drops a FullSpace window, so that its pieces keep
    # their closed-form masses
    parts = tuple(gauss_measure(p, dim=dim) for p in (
        e, sets.intersect(omega, ec), sets.intersect(e, omega),
        sets.intersect(ec, oc)))
    (g1, e1), (g2, e2), (g3, e3), (g4, e4) = ((p.value, p.error)
                                              for p in parts)
    mu = 2.0 * (g1 * g2 + g3 * g4)
    err = 2.0 * (g2 * e1 + g1 * e2 + e1 * e2 + g4 * e3 + g3 * e4 + e3 * e4)
    return LimitValue(mu, err, parts)


# ---------------------------------------------------------------------------
# sweep with extrapolation
# ---------------------------------------------------------------------------

def _fit_small_s(s: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """Weighted least squares of v ~ a + b s + c s^2.

    Rows are weighted by 1/s: the model's own remainder is O(s^3), so
    the largest-s rows carry the largest model error and must not
    dominate the fit of the intercept.
    """
    design = np.column_stack([np.ones_like(s), s, s * s])
    w = 1.0 / s
    coeffs, *_ = np.linalg.lstsq(design * w[:, None], v * w, rcond=None)
    resid = float(np.max(np.abs(design @ coeffs - v)))
    return coeffs, resid


def sweep(e: sets.SetExpr, omega: sets.SetExpr = sets.FullSpace(),
          s_list=DEFAULT_S_LIST, seed: int = 0, dim: int = 1) -> SweepResult:
    """s * perimeter along a decreasing s grid, extrapolated to s = 0."""
    s_arr = np.asarray(sorted(set(float(s) for s in s_list), reverse=True))
    if s_arr.size < 4:
        raise ValueError("sweep needs at least 4 distinct s values to fit "
                         "the 3-parameter extrapolation model")
    totals = [br.total for br in _perimeters(e, omega, s_arr, seed, dim)]
    vals = s_arr * np.array([est.value for est in totals])
    errs = s_arr * np.array([est.error for est in totals])
    coeffs, resid = _fit_small_s(s_arr, vals)
    return SweepResult(
        s_values=s_arr, values=vals, errors=errs,
        methods=tuple(est.method for est in totals),
        extrapolated_limit=float(coeffs[0]),
        uncertainty=max(float(np.max(errs)), resid),
        fit_coefficients=tuple(float(c) for c in coeffs), fit_residual=resid)


# ---------------------------------------------------------------------------
# set-function properties
# ---------------------------------------------------------------------------

def additivity_defect(a: sets.SetExpr, b: sets.SetExpr,
                      dim: int = 1) -> tuple[float, float]:
    """mu(A|B) - mu(A) - mu(B) over the full space; equals -4 g(A) g(B).

    Returns (defect, propagated_error).  Raises OverlapError when the
    intersection has Gaussian mass above its error.
    """
    _check_disjoint(a, b, dim)
    report = check_subadditivity(a, b, dim=dim)
    return -report.slack, report.error


def interaction_lower_bound(a: sets.SetExpr, b: sets.SetExpr,
                            dim: int = 1) -> float:
    """s-independent lower bound for s * L_s(A, B) for disjoint A, B.

    Restricting both sets to the ball B_R and the time integral to
    t >= 1, where the Mehler exponent is bounded below on B_R x B_R:

        s L_s(A, B) >= 2 exp(-2 R^2 / (e^2 - 1)) g(A & B_R) g(B & B_R).
    """
    ball = sets.Ball(center=(0.0,) * dim, radius=_R)
    ga = gauss_measure(sets.Intersection(a, ball), dim=dim).value
    gb = gauss_measure(sets.Intersection(b, ball), dim=dim).value
    return 2.0 * math.exp(-2.0 * _R ** 2 / (math.e ** 2 - 1.0)) * ga * gb


def sweep_row_lower_bound(e: sets.SetExpr, omega: sets.SetExpr, s: float,
                          dim: int = 1) -> float:
    """Liminf-shaped floor for a single sweep row s * P_s(E; Omega).

    2 exp(-2 e^{-2/s} R^2 / (1 - e^{-2/s})) s^{s/2} times the three
    B_R-truncated measure products; every finite-perimeter row must sit
    above it within estimator error.
    """
    ball = sets.Ball(center=(0.0,) * dim, radius=_R)

    def mass(expr):
        return gauss_measure(sets.Intersection(expr, ball), dim=dim).value

    q = math.exp(-2.0 / s)
    pref = 2.0 * math.exp(-2.0 * q * _R ** 2 / (1.0 - q)) * s ** (s / 2.0)
    return pref * sum(mass(a) * mass(b) for a, b in _three_pieces(e, omega))


@dataclass(frozen=True)
class SubadditivityReport:
    mu_union: float
    mu_a: float
    mu_b: float
    slack: float         # mu(A) + mu(B) - mu(A|B); >= -error when subadditive
    error: float
    holds: bool


def check_subadditivity(a: sets.SetExpr, b: sets.SetExpr,
                        omega: sets.SetExpr = sets.FullSpace(),
                        dim: int = 1) -> SubadditivityReport:
    """Verify mu(A | B) <= mu(A) + mu(B) up to propagated error."""
    mu_ab = mu_limit(sets.Union(a, b), omega, dim=dim)
    mu_a = mu_limit(a, omega, dim=dim)
    mu_b = mu_limit(b, omega, dim=dim)
    slack = mu_a.mu + mu_b.mu - mu_ab.mu
    err = mu_ab.error + mu_a.error + mu_b.error
    return SubadditivityReport(mu_ab.mu, mu_a.mu, mu_b.mu, slack, err,
                               holds=slack >= -err)


def non_monotonicity_witness(dim: int = 1) -> tuple[float, float]:
    """mu of a small ball inside Omega = B_1 versus mu of the full space.

    Returns (mu(small ball), mu(full space)); the first is strictly
    positive and the second zero, so mu is not monotone under inclusion.
    """
    omega = sets.Ball(center=(0.0,) * dim, radius=1.0)
    small = sets.Ball(center=(0.0,) * dim, radius=0.5)
    return (mu_limit(small, omega, dim=dim).mu,
            mu_limit(sets.FullSpace(), omega, dim=dim).mu)


# ---------------------------------------------------------------------------
# divergent construction
# ---------------------------------------------------------------------------

def beta_sequence(count: int) -> np.ndarray:
    """beta_1 = 1/log^2 2, beta_k = 1/(k log^2 k): summable, but the
    (1-s)-powers diverge for every s in (0,1)."""
    k = np.arange(1, count + 1, dtype=float)
    beta = np.empty(count)
    beta[0] = 1.0 / math.log(2.0) ** 2
    if count > 1:
        beta[1:] = 1.0 / (k[1:] * np.log(k[1:]) ** 2)
    return beta


@dataclass(frozen=True)
class DivergentExample:
    """Truncation of the infinite-perimeter interval union.

    ``intervals`` are the even-indexed gaps (sigma_{2j}, sigma_{2j+1}),
    j = 1..J; ``lower_bound`` is the analytic floor
    (1/2pi) e^{-M^2}/(1-s) sum_{j<=J} beta_{2j+2}^{1-s}, which grows
    without bound in J — the certificate that the full set has infinite
    perimeter at every s.
    """

    s: float
    pairs: int
    total_length: float       # M, the sum of all beta_k
    intervals: sets.IntervalUnion
    lower_bound: float

    def perimeter_estimate(self) -> InteractionEstimate:
        """Direct quadrature of the truncated set's perimeter (small J only)."""
        omega = sets.IntervalUnion(intervals=((0.0, self.total_length),))
        return perimeter(self.intervals, omega, self.s, dim=1).total


def divergent_example(pairs: int, s: float) -> DivergentExample:
    """Build the truncated divergent set and its analytic lower bound."""
    if pairs < 2:
        raise ValueError("need at least 2 interval pairs")
    if not 0 < s < 1:
        raise ValueError(f"s must lie in (0,1), got {s}")
    n_beta = max(2 * pairs + 3, 10 ** 6)
    beta = beta_sequence(n_beta)
    total = float(beta.sum())
    sigma = np.concatenate([[0.0], np.cumsum(beta)])
    j = np.arange(1, pairs + 1)
    ivs = tuple((float(sigma[2 * jj]), float(sigma[2 * jj + 1])) for jj in j)
    bound = (math.exp(-total ** 2) / (2.0 * math.pi * (1.0 - s))
             * float(np.sum(beta[2 * j + 1] ** (1.0 - s))))
    return DivergentExample(
        s=s, pairs=pairs, total_length=total,
        intervals=sets.IntervalUnion(intervals=ivs), lower_bound=bound,
    )
