"""Independent mpmath references for the benchmark's checked rows.

Every interaction energy gfp computes in one dimension is a time integral

    L(A, B) = int_0^inf W(t) F(t) dt,   F(t) = P(X in A, Y in B),

where (X, Y) is a standard Gaussian pair with correlation rho = e^-t,
possibly with rescaled endpoints.  Two kernels occur:

* ``ou``: the subordinated Mehler kernel of index sigma,
  W(t) = t^(-sigma/2-1), endpoints unscaled.  The tail t > T is analytic:
  F -> gamma(A) gamma(B), and |F - F(inf)| <= e^-t / 4 (Gebelein).
* ``lam``: the Euclidean kernel |x-y|^-(1+s) under the weighted measure
  lambda.  From |r|^-(1+s) = Gamma((1+s)/2)^-1 int u^((1+s)/2-1) e^(-u r^2) du
  and u = 1/(4(e^t - 1)), the pair integral becomes a Gaussian rectangle
  with correlation e^-t, endpoints scaled by sqrt((1 + e^-t)/2) and weight
  W(t) = (4(e^t-1))^((1-s)/2) 2 sqrt(tanh(t/2)) e^t / (4 (e^t-1)^2) / Gamma((1+s)/2).

F is a sum of bivariate-normal rectangle probabilities, that is of signed
orthants G(h, k) = P(X < h, Y > k) at the rectangle corners.  Corners at
a shared endpoint use Owen's T function (Owen 1956, Ann. Math. Stat.
27:1075) in the cancellation-free form G(c, c) = 2 T(c, sqrt(tanh(t/2)));
at c = 0 that is atan(sqrt(expm1(2t)))/(2 pi).  Near t = 0 that part is
integrated in w with t = w^(2/(1-sigma)), which turns its sqrt(t)
boundary layer into a bounded integrand.  Corners at separated endpoints
vanish faster than any power of t as t -> 0; Owen's general formula would
cancel there, so their part is integrated by parts against
V(t) = int_t^inf W, which leaves the explicit bivariate density
(dPhi2/drho = phi2).

Nothing here imports gfp.  A reference is accepted only when two working
precisions agree.
"""

from __future__ import annotations

import json
import math
import os

import mpmath as mp

INF = math.inf
PRECISIONS = (18, 24)   # decimal digits of the two independent evaluations
AGREE_REL = 1e-17       # the two must agree this well to be accepted


class UnreliableReference(RuntimeError):
    """The two precisions disagree: the reference cannot be trusted."""


# ---------------------------------------------------------------------------
# Owen's T and Gaussian orthants
# ---------------------------------------------------------------------------

def owens_t(h, a):
    """Owen's T(h, a) = (1/2pi) int_0^a exp(-h^2 (1+x^2)/2) / (1+x^2) dx.

    Series in a for 0 <= a <= 1, the only range a shared corner needs.
    """
    if not 0 <= a <= 1:
        raise ValueError(f"owens_t series needs 0 <= a <= 1, got {a}")
    h = abs(h)
    if a == 0:
        return mp.mpf(0)
    if h == 0:
        return mp.atan(a) / (2 * mp.pi)
    x = h * h / 2
    if x > mp.mp.dps * 2.31 + 10:   # T <= e^-x / 8, below working precision
        return mp.mpf(0)
    # both series below cancel by up to e^x; buy those digits back
    with mp.extradps(int(x / 2.3) + 5):
        x = mp.mpf(x)
        a = mp.mpf(a)
        a2 = a * a
        eps = mp.eps
        if a <= 0.5:
            # T = e^-x/(2pi) sum_j (-1)^j a^(2j+1) e_j(x) / (2j+1)
            term, e_j, power = mp.mpf(1), mp.mpf(1), a
            total, j = a, 0
            while True:
                j += 1
                term *= x / j
                e_j += term
                power *= -a2
                step = power * e_j / (2 * j + 1)
                total += step
                if j > x and abs(step) <= eps * abs(total):
                    break
            return +(mp.exp(-x) * total / (2 * mp.pi))
        # T = (atan a - sum_j (-1)^j a^(2j+1) q_j / (2j+1)) / (2pi),
        # q_j = P(Poisson(x) > j)
        term = mp.exp(-x)
        cdf = term
        power = a
        total = power * (1 - cdf)
        j = 0
        while True:
            j += 1
            term *= x / j
            cdf += term
            power *= -a2
            step = power * (1 - cdf) / (2 * j + 1)
            total += step
            if j > x and abs(step) <= eps:
                break
        return +((mp.atan(a) - total) / (2 * mp.pi))


def _corners(terms):
    """Signed orthant corners of a signed sum of interval-pair energies.

    P(X in (a1,b1), Y in (a2,b2)) with b1 <= a2 is
    G(b1,a2) - G(a1,a2) - G(b1,b2) + G(a1,b2), G(h,k) = P(X < h, Y > k);
    corners at an infinite endpoint vanish.  Returns {(h, k): weight}.
    """
    out = {}
    for sign, a, b in terms:
        for iv_a in a:
            for iv_b in b:
                # exchangeable pair: put the left interval first
                lo, hi = sorted((iv_a, iv_b))
                if lo[1] > hi[0]:
                    raise ValueError(f"intervals {lo} and {hi} overlap")
                for h, k, w in ((lo[1], hi[0], 1), (lo[0], hi[0], -1),
                                (lo[1], hi[1], -1), (lo[0], hi[1], 1)):
                    if h != -INF and k != INF:
                        out[(h, k)] = out.get((h, k), 0) + sign * w
    return {hk: w for hk, w in out.items() if w}


class _Integrand:
    """The pair sum split by corner type, for correlation e^-t.

    ``shared_sum(t)`` sums the corners at a common endpoint c, each
    G(c, c) = 2 T(c, sqrt(tanh(t/2))).  ``separated_rate(t)`` is dG/dt
    summed over the corners h < k: there G vanishes faster than any power
    as t -> 0, and integrating by parts against V(t) = int_t^inf W turns
    its Owen-T cancellation into the explicit bivariate density
    (dPhi2/drho = phi2, Plackett 1954).
    """

    def __init__(self, terms, kernel):
        corners = _corners(terms)
        self.shared = [(w, mp.mpf(h)) for (h, k), w in corners.items() if h == k]
        self.separated = [(w, mp.mpf(h), mp.mpf(k))
                          for (h, k), w in corners.items() if h < k]
        self.kernel = kernel
        self.memo = {}
        self.rate_memo = {}

    def scale(self, t):
        return mp.sqrt((1 + mp.exp(-t)) / 2) if self.kernel == "lam" else 1

    def shared_sum(self, t):
        if t <= 0 or not self.shared:
            return mp.mpf(0)
        got = self.memo.get(t)
        if got is None:
            a = mp.sqrt(mp.tanh(t / 2))
            kappa = self.scale(t)
            got = mp.fsum(2 * w * owens_t(kappa * c, a) for w, c in self.shared)
            self.memo[t] = got
        return got

    def shared_limit(self):
        # G(c, c) at correlation 0 is Phi(c) Q(c)
        return mp.fsum(w * mp.ncdf(c) * mp.ncdf(-c) for w, c in self.shared)

    def separated_rate(self, t):
        if t <= 0 or not self.separated:
            return mp.mpf(0)
        if t not in self.rate_memo:
            self.rate_memo[t] = self._separated_rate(t)
        return self.rate_memo[t]

    def _separated_rate(self, t):
        rho = mp.exp(-t)
        one_minus = -mp.expm1(-t)
        root = mp.sqrt(-mp.expm1(-2 * t))
        kappa = self.scale(t)
        dkappa = -rho / (4 * kappa) if self.kernel == "lam" else 0
        # e^(-gap^2 / 4t) factor below the working precision: skip the corner
        cutoff = 4 * t * (mp.mp.dps * mp.log(10) + 20)
        total = mp.mpf(0)
        for w, h, k in self.separated:
            if (k - h) ** 2 > cutoff:
                continue
            hs, ks = kappa * h, kappa * k
            quad_form = (ks - hs) ** 2 + 2 * one_minus * hs * ks
            rate = rho * mp.exp(-quad_form / (2 * root * root)) / (2 * mp.pi * root)
            if dkappa:
                rate += dkappa * (h * mp.npdf(hs) * mp.ncdf((rho * hs - ks) / root)
                                  - k * mp.npdf(ks) * mp.ncdf((hs - rho * ks) / root))
            total += w * rate
        return total


def _lam_weight(t, s, gamma_al):
    em1 = mp.expm1(t)
    return ((4 * em1) ** ((1 - s) / 2) * 2 * mp.sqrt(mp.tanh(t / 2))
            * (em1 + 1) / (4 * em1 * em1) / gamma_al)


def _lam_weight_tail(t, s, gamma_al):
    """int_t^inf of the lam weight: (2/Gamma(al)) U^al/al 2F1(1/2, al; al+1; -8U)."""
    al = (1 + s) / 2
    u = 1 / (4 * mp.expm1(t))
    return 2 * u ** al / al * mp.hyp2f1(0.5, al, al + 1, -8 * u) / gamma_al


def _integrate(terms, kernel, indices, dps):
    """Time integrals of one signed pair sum for several kernel indices."""
    with mp.workdps(dps + 3):
        f = _Integrand(terms, kernel)
        idx = [mp.mpf(x) for x in indices]
        # one substitution for all indices so that they share F evaluations
        power = 2 / (1 - max(idx))
        ln10 = mp.log(10)
        out = []
        for sig in idx:
            if kernel == "ou":
                def weight(t, sig=sig):
                    return t ** (-sig / 2 - 1)

                def weight_tail(t, sig=sig):
                    return 2 / sig * t ** (-sig / 2)
                t_end = mp.ceil((dps + 10) * ln10)
            else:
                gamma_al = mp.gamma((1 + sig) / 2)

                def weight(t, sig=sig, g=gamma_al):
                    return _lam_weight(t, sig, g)

                def weight_tail(t, sig=sig, g=gamma_al):
                    return _lam_weight_tail(t, sig, g)
                t_end = mp.ceil(2 * (dps + 10) * ln10 / (1 + sig))

            def integrand(t, weight=weight, weight_tail=weight_tail):
                total = weight(t) * f.shared_sum(t)
                rate = f.separated_rate(t)
                if rate:
                    total += weight_tail(t) * rate
                return total

            def near(w, integrand=integrand):
                if w == 0:
                    return mp.mpf(0)
                t = w ** power
                return integrand(t) * power * t / w

            def far(v, integrand=integrand):
                t = mp.exp(v)
                return integrand(t) * t

            total = mp.quad(near, [0, 1])
            total += mp.quad(far, [0, mp.log(t_end)], method="gauss-legendre")
            if kernel == "ou":
                total += f.shared_limit() * weight_tail(t_end)
            out.append(+total)
        return out


def _accepted(terms, kernel, indices):
    lo, hi = (_integrate(terms, kernel, indices, d) for d in PRECISIONS)
    for x, y, sig in zip(lo, hi, indices):
        if abs(x - y) > AGREE_REL * abs(y):
            raise UnreliableReference(
                f"{kernel} reference at index {sig}: {mp.nstr(x, 22)} at "
                f"{PRECISIONS[0]} digits vs {mp.nstr(y, 22)} at {PRECISIONS[1]}")
    return [mp.nstr(y, 22) for y in hi]


# ---------------------------------------------------------------------------
# interval algebra on sorted lists of open intervals (endpoints may be inf)
# ---------------------------------------------------------------------------

def complement(ivs):
    out, cur = [], -INF
    for a, b in ivs:
        if cur < a:
            out.append((cur, a))
        cur = b
    if cur < INF:
        out.append((cur, INF))
    return out


def intersect(p, q):
    out = []
    for a, b in p:
        for c, d in q:
            lo, hi = max(a, c), min(b, d)
            if lo < hi:
                out.append((lo, hi))
    return sorted(out)


def _window_terms(e, omega):
    """E vs E^c minus the part of that pair outside the window.

    P(E; Omega) = L(E, E^c) - L(E \\ Omega, E^c \\ Omega): a split that
    shares nothing with gfp's three-term sum.
    """
    ec, oc = complement(e), complement(omega)
    terms = [(1, e, ec)]
    e_out, ec_out = intersect(e, oc), intersect(ec, oc)
    if e_out and ec_out:
        terms.append((-1, e_out, ec_out))
    return terms


# ---------------------------------------------------------------------------
# public problems, cached by their canonical description
# ---------------------------------------------------------------------------

class References:
    """Reference values with an optional JSON cache file."""

    def __init__(self, cache_path=None):
        self.cache_path = cache_path
        self.cache = {}
        self.computed = 0
        if cache_path and os.path.exists(cache_path):
            with open(cache_path) as fh:
                self.cache = json.load(fh)

    def _get(self, key, compute):
        if key not in self.cache:
            self.cache[key] = compute()
            self.computed += 1
        return self.cache[key]

    def save(self):
        if not self.cache_path or not self.computed:
            return
        tmp = self.cache_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.cache, fh, sort_keys=True, indent=0)
        os.replace(tmp, self.cache_path)

    def perimeter(self, e, omega, s_list):
        """P_s(E; Omega) for 1-D interval lists, one value per s."""
        key = json.dumps(["perimeter", e, omega, list(s_list)])
        vals = self._get(key, lambda: _accepted(
            _window_terms(e, omega), "ou", s_list))
        return [mp.mpf(v) for v in vals]

    def jlambda(self, e, omega, s):
        key = json.dumps(["jlambda", e, omega, s])
        vals = self._get(key, lambda: _accepted(
            _window_terms(e, omega), "lam", [s]))
        return mp.mpf(vals[0])

    def seminorm_indicator(self, e, s):
        """[1_E]_s^2 = 2 L_{2s}(E, E^c)."""
        key = json.dumps(["seminorm", e, s])
        vals = self._get(key, lambda: _accepted(
            [(2, e, complement(e))], "ou", [2 * s]))
        return mp.mpf(vals[0])


def _phi(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def mu_halfline_window(c, w):
    """mu(E; Omega) for E = (c, inf), Omega = (-w, w) or R (w = inf)."""
    g_e = _phi(-c)
    if w == INF:
        return 2.0 * g_e * (1.0 - g_e)
    g_omega_less_e = _phi(w) - _phi(-c)   # (-w, c]
    g_e_in = _phi(-c) - _phi(-w)          # (c, w)
    g_out = _phi(-w)                      # E^c outside the window: (-inf, -w]
    return 2.0 * (g_e * g_omega_less_e + g_e_in * g_out)


def _gamma_2d(node):
    """gamma of a half-plane or an axis box, from erfc."""
    (key, val), = node.items()
    if key == "halfspace":
        return _phi(val["offset"])
    return math.prod(_phi(b) - _phi(a) for a, b in zip(val["lo"], val["hi"]))


def mu_2d(e, omega):
    """mu(E; Omega) for E a half-plane or box and Omega = R^2 or a box."""
    g_e = _gamma_2d(e)
    if "full" in omega:
        return 2.0 * g_e * (1.0 - g_e)
    lo = [max(a, b) for a, b in zip(e["box"]["lo"], omega["box"]["lo"])]
    hi = [min(a, b) for a, b in zip(e["box"]["hi"], omega["box"]["hi"])]
    g_in = _gamma_2d({"box": {"lo": lo, "hi": hi}}) if all(
        a < b for a, b in zip(lo, hi)) else 0.0
    g_o = _gamma_2d(omega)
    g_out = 1.0 - g_e - g_o + g_in          # E^c & Omega^c
    return 2.0 * (g_e * (g_o - g_in) + g_in * g_out)
