"""Small-s asymptotics of the renormalised fractional Gaussian perimeter.

The limit functional is the closed-form set function

    mu(E; Omega) = 2 [ gamma(E) gamma(Omega \\ E)
                       + gamma(E & Omega) gamma(E^c & Omega^c) ],

computed here exactly when the measures have closed forms and with
propagated Monte Carlo errors otherwise.  ``sweep`` evaluates
s * P_s(E; Omega) along a decreasing list of s values and extrapolates
to s = 0 with the model a + b s + c s^2: s * P_s is analytic in s
(splitting the time integral at t = 1 and expanding t^(-s/2) gives
mu + m_0 s + O(s^2)), so the fit is a truncated Taylor series.  The module
also exposes the non-additivity defect, a subadditivity checker with a
non-monotonicity witness, and the divergent interval-union construction
whose lower-bound series certifies an infinite perimeter.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import sets
from .errors import OverlapError
from .interaction import (Budget, InteractionEstimate, PerimeterBreakdown,
                          _operand_dim, _quadrature_1d, _three_pieces,
                          perimeter)
from .measure import MeasureEstimate, gauss_measure

DEFAULT_S_LIST = tuple(2.0 ** -k for k in range(1, 9))


@dataclass(frozen=True)
class LimitValue:
    """Closed-form small-s limit with its four measure components."""

    mu: float
    error: float
    components: tuple[MeasureEstimate, MeasureEstimate,
                      MeasureEstimate, MeasureEstimate]

    @property
    def method(self) -> str:
        kinds = {c.method for c in self.components}
        return "closed-form" if kinds == {"closed-form"} else "monte-carlo"


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
    divergence_suspected: bool

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("s,value,error,method\n")
        for s, v, e, m in zip(self.s_values, self.values, self.errors,
                              self.methods):
            buf.write(f"{float(s)!r},{float(v)!r},{float(e)!r},{m}\n")
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({
            "rows": [
                {"s": float(s), "value": float(v), "error": float(e),
                 "method": m}
                for s, v, e, m in zip(self.s_values, self.values,
                                      self.errors, self.methods)
            ],
            "extrapolated_limit": self.extrapolated_limit,
            "uncertainty": self.uncertainty,
            "fit": {
                "model": "a + b*s + c*s**2",
                "a": self.fit_coefficients[0],
                "b": self.fit_coefficients[1],
                "c": self.fit_coefficients[2],
                "residual": self.fit_residual,
            },
            "divergence_suspected": self.divergence_suspected,
        })

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        doc = json.loads(text)
        rows = doc["rows"]
        return cls(
            s_values=np.array([r["s"] for r in rows]),
            values=np.array([r["value"] for r in rows]),
            errors=np.array([r["error"] for r in rows]),
            methods=tuple(r["method"] for r in rows),
            extrapolated_limit=float(doc["extrapolated_limit"]),
            uncertainty=float(doc["uncertainty"]),
            fit_coefficients=(doc["fit"]["a"], doc["fit"]["b"],
                              doc["fit"]["c"]),
            fit_residual=float(doc["fit"]["residual"]),
            divergence_suspected=bool(doc["divergence_suspected"]),
        )


# ---------------------------------------------------------------------------
# closed-form limit
# ---------------------------------------------------------------------------

def mu_limit(e: sets.SetExpr, omega: sets.SetExpr = sets.FullSpace(),
             dim: int = 1, seed: int = 0) -> LimitValue:
    """mu(E; Omega) = 2[g(E)g(Omega\\E) + g(E&Omega)g(E^c&Omega^c)]."""
    ec = sets.complement(e)
    oc = sets.complement(omega)
    parts = (
        gauss_measure(e, dim=dim, seed=seed),
        gauss_measure(sets.Difference(omega, e), dim=dim, seed=seed),
        gauss_measure(sets.Intersection(e, omega), dim=dim, seed=seed),
        gauss_measure(sets.Intersection(ec, oc), dim=dim, seed=seed),
    )
    g_e, g_omega_less_e, g_e_in, g_out = (p.value for p in parts)
    mu = 2.0 * (g_e * g_omega_less_e + g_e_in * g_out)
    se = (p.std_error for p in parts)
    s1, s2, s3, s4 = se
    err = 2.0 * math.sqrt(
        (g_omega_less_e * s1) ** 2 + (g_e * s2) ** 2
        + (g_out * s3) ** 2 + (g_e_in * s4) ** 2
    )
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
          s_list=DEFAULT_S_LIST, budget: Budget | None = None, seed: int = 0,
          dim: int = 1) -> SweepResult:
    """s * perimeter along a decreasing s grid, extrapolated to s = 0."""
    s_arr = np.asarray(sorted(set(float(s) for s in s_list), reverse=True))
    if s_arr.size < 4:
        raise ValueError("sweep needs at least 4 distinct s values to fit "
                         "the 3-parameter extrapolation model")
    if not (np.all(s_arr > 0) and np.all(s_arr < 1)):
        raise ValueError("s values must lie in (0,1)")
    pieces = _three_pieces(e, omega)
    if all(_operand_dim(pa, pb, dim) == 1 for pa, pb in pieces):
        # one kernel pass per piece serves every s
        budget = budget if budget is not None else Budget()
        rows = zip(*(_quadrature_1d(pa, pb, s_arr, budget)
                     for pa, pb in pieces))
        totals = [PerimeterBreakdown(*row).total for row in rows]
    else:
        totals = [perimeter(e, omega, s, budget=budget, seed=seed,
                            dim=dim).total for s in s_arr]
    vals = s_arr * np.array([est.value for est in totals])
    errs = s_arr * np.array([est.error for est in totals])
    coeffs, resid = _fit_small_s(s_arr, vals)
    # Error growth as s shrinks signals a perimeter that is not finite:
    # for finite perimeter the rows stay bounded while a divergent set's
    # quadrature error estimate inflates with the near-diagonal mass.
    rel = errs / np.maximum(np.abs(vals), 1e-300)
    divergent = bool(
        vals.size >= 4
        and np.all(np.diff(rel[-3:]) > 0)
        and rel[-1] > 100.0 * rel[0]
    )
    uncertainty = max(float(np.max(errs)), resid)
    return SweepResult(
        s_values=s_arr, values=vals, errors=errs,
        methods=tuple(est.method for est in totals),
        extrapolated_limit=float(coeffs[0]), uncertainty=uncertainty,
        fit_coefficients=tuple(float(c) for c in coeffs),
        fit_residual=resid, divergence_suspected=divergent,
    )


# ---------------------------------------------------------------------------
# set-function properties
# ---------------------------------------------------------------------------

def additivity_defect(a: sets.SetExpr, b: sets.SetExpr, dim: int = 1,
                      seed: int = 0) -> tuple[float, float]:
    """mu(A|B) - mu(A) - mu(B) over the full space; equals -4 g(A) g(B).

    Returns (defect, propagated_error).  Raises OverlapError when the
    intersection carries detectable Gaussian mass.
    """
    inter = gauss_measure(sets.Intersection(a, b), dim=dim, seed=seed)
    if inter.value > 3.0 * inter.std_error + 1e-12:
        raise OverlapError("A and B must be disjoint")
    full = sets.FullSpace()
    mu_ab = mu_limit(sets.Union(a, b), full, dim=dim, seed=seed)
    mu_a = mu_limit(a, full, dim=dim, seed=seed)
    mu_b = mu_limit(b, full, dim=dim, seed=seed)
    defect = mu_ab.mu - mu_a.mu - mu_b.mu
    err = math.sqrt(mu_ab.error ** 2 + mu_a.error ** 2 + mu_b.error ** 2)
    return defect, err


def interaction_lower_bound(a: sets.SetExpr, b: sets.SetExpr,
                            radius: float = 3.0, dim: int = 1,
                            seed: int = 0) -> float:
    """s-independent lower bound for s * L_s(A, B) for disjoint A, B.

    Restricting both sets to the ball B_R and the time integral to
    t >= 1, where the Mehler exponent is bounded below on B_R x B_R:

        s L_s(A, B) >= 2 exp(-2 R^2 / (e^2 - 1)) g(A & B_R) g(B & B_R).
    """
    ball = sets.Ball(center=(0.0,) * dim, radius=radius)
    ga = gauss_measure(sets.Intersection(a, ball), dim=dim, seed=seed).value
    gb = gauss_measure(sets.Intersection(b, ball), dim=dim, seed=seed).value
    return 2.0 * math.exp(-2.0 * radius ** 2 / (math.e ** 2 - 1.0)) * ga * gb


def sweep_row_lower_bound(e: sets.SetExpr, omega: sets.SetExpr, s: float,
                          radius: float = 3.0, dim: int = 1,
                          seed: int = 0) -> float:
    """Liminf-shaped floor for a single sweep row s * P_s(E; Omega).

    2 exp(-2 e^{-2/s} R^2 / (1 - e^{-2/s})) s^{s/2} times the three
    B_R-truncated measure products; every finite-perimeter row must sit
    above it within estimator error.
    """
    ball = sets.Ball(center=(0.0,) * dim, radius=radius)

    def mass(expr):
        return gauss_measure(sets.Intersection(expr, ball), dim=dim,
                             seed=seed).value

    q = math.exp(-2.0 / s)
    pref = 2.0 * math.exp(-2.0 * q * radius ** 2 / (1.0 - q)) * s ** (s / 2.0)
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
                        dim: int = 1, seed: int = 0) -> SubadditivityReport:
    """Verify mu(A | B) <= mu(A) + mu(B) up to propagated error."""
    mu_ab = mu_limit(sets.Union(a, b), omega, dim=dim, seed=seed)
    mu_a = mu_limit(a, omega, dim=dim, seed=seed)
    mu_b = mu_limit(b, omega, dim=dim, seed=seed)
    slack = mu_a.mu + mu_b.mu - mu_ab.mu
    err = math.sqrt(mu_ab.error ** 2 + mu_a.error ** 2 + mu_b.error ** 2)
    return SubadditivityReport(mu_ab.mu, mu_a.mu, mu_b.mu, slack, err,
                               holds=slack >= -3.0 * err)


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

    def perimeter_estimate(self, budget: Budget | None = None,
                           seed: int = 0) -> InteractionEstimate:
        """Direct quadrature of the truncated set's perimeter (small J only)."""
        omega = sets.IntervalUnion(intervals=((0.0, self.total_length),))
        return perimeter(self.intervals, omega, self.s, budget=budget,
                         seed=seed, dim=1).total


def divergent_example(pairs: int, s: float,
                      series_terms: int = 10 ** 6) -> DivergentExample:
    """Build the truncated divergent set and its analytic lower bound."""
    if pairs < 2:
        raise ValueError("need at least 2 interval pairs")
    if not 0 < s < 1:
        raise ValueError(f"s must lie in (0,1), got {s}")
    n_beta = max(2 * pairs + 3, series_terms)
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
