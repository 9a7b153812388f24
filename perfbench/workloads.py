"""Seeded workloads: inputs, operations, and what each result is checked against.

A workload is a sequence of cycles of fixed slots (operation type, set
shape, window shape).  The shapes of a slot rotate with the cycle index,
never with the seed; the seed only draws the continuous parameters inside
a slot, on a 0.01 grid so that every input is exact in JSON.  A run
executes whole cycles, so the cost of a run does not depend on which
shapes a seed happens to draw.

Each operation returns rows ``Row(label, value, error, kind, ref)``:
``kind`` says what the reported error claims to be (``bound`` for the
deterministic quadrature, ``mc`` for a Monte Carlo standard error,
``heuristic`` for the spectral truncation estimate and the sweep's fit
uncertainty) and ``ref`` names the independent reference, or is None when
the benchmark has none for that row.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
from dataclasses import dataclass

INF = math.inf
# every other row of gfp's default 8-row grid: a cycle holds two sweeps, and
# two 8-row sweeps (~90 s today) would not fit one benchmark run
SWEEP_S = (0.5, 0.125, 0.03125, 0.0078125)
SPECTRAL_DEGREE = 10 ** 5
E_SHAPES = ("halfline", "interval", "complement")


def gfp_module(name):
    """gfp.<name>; ``from gfp import mehler`` would return a function."""
    return importlib.import_module(f"gfp.{name}")


def grid(rng, lo, hi):
    """Uniform draw from the 0.01 grid on [lo, hi]."""
    return rng.randint(round(lo * 100), round(hi * 100)) / 100


@dataclass
class Row:
    label: str
    value: float
    error: float
    kind: str            # "bound" | "mc" | "heuristic"
    ref: tuple | None    # reference problem, see run.reference_value


@dataclass
class Op:
    kind: str            # operation type, e.g. "perimeter"
    desc: dict           # JSON-exact description of the inputs
    call: object         # () -> list[Row]; raises GfpError on failure


# ---------------------------------------------------------------------------
# 1-D sets as JSON nodes and as interval lists for the references
# ---------------------------------------------------------------------------

def _halfline(c, right):
    if right:   # [c, inf) = {x : -x <= -c}
        return {"halfspace": {"normal": [-1.0], "offset": -c}}, [(c, INF)]
    return {"halfspace": {"normal": [1.0], "offset": c}}, [(-INF, c)]


def _interval(a, b):
    return {"intervals": [[a, b]]}, [(a, b)]


def _complement(a, b):
    return {"not": {"intervals": [[a, b]]}}, [(-INF, a), (b, INF)]


def _draw_e_1d(rng, shape):
    """E with endpoints on [-2, 2], 1 to 2 apart."""
    if shape == "halfline":
        return _halfline(grid(rng, -2, 2), rng.random() < 0.5)
    a = grid(rng, -2, 1)
    b = grid(rng, a + 1, min(a + 2, 2))
    return (_interval if shape == "interval" else _complement)(a, b)


def _finite_ends(ivs):
    return [x for iv in ivs for x in iv if math.isfinite(x)]


def _draw_window_1d(rng, e_ivs, near):
    """Omega = (l, r) of length 1 to 2 holding exactly one endpoint of E.

    ``near``: exactly one Omega endpoint lies 0.05-0.20 from an endpoint
    of E (a near contact, graded twice by today's mesh); otherwise every
    Omega endpoint is at least 0.25 from every endpoint of E.
    """
    ends = [round(100 * x) for x in _finite_ends(e_ivs)]   # in hundredths
    for _ in range(10 ** 6):
        l = grid(rng, -2.5, 1.5)
        r = grid(rng, l + 1, min(l + 2, 2.5))
        cuts = [round(100 * l), round(100 * r)]
        if sum(cuts[0] < x < cuts[1] for x in ends) != 1:
            continue
        gaps = sorted(min(abs(w - x) for x in ends) for w in cuts)
        if near and 5 <= gaps[0] <= 20 and gaps[1] >= 25:
            return l, r
        if not near and gaps[0] >= 25:
            return l, r
    raise RuntimeError(f"no window for E = {e_ivs}")


def _load(node, dim):
    expr, _ = gfp_module("sets").set_from_json(
        json.dumps({"dim": dim, "set": node}))
    return expr


def _one(est, label, kind, ref):
    return Row(label, float(est.value), float(est.error), kind, ref)


# ---------------------------------------------------------------------------
# sweep-1d: the CLI sweep on half-lines, with and without a window
# ---------------------------------------------------------------------------

def _sweep_op(rng, work_dir, index, windowed, op_seed):
    if windowed:
        w = grid(rng, 0.5, 2)
        c = grid(rng, -(w - 0.25), w - 0.25)
    else:
        w, c = INF, grid(rng, -1, 1)
    e_node, e_ivs = _halfline(c, True)
    paths = {"set": os.path.join(work_dir, f"sweep-{index}-set.json"),
             "out": os.path.join(work_dir, f"sweep-{index}-out.json")}
    docs = {"set": {"dim": 1, "set": e_node}}
    omega_ivs = [(-INF, INF)]
    if windowed:
        paths["omega"] = os.path.join(work_dir, f"sweep-{index}-omega.json")
        docs["omega"] = {"dim": 1, "set": {"intervals": [[-w, w]]}}
        omega_ivs = [(-w, w)]
    for key, doc in docs.items():
        with open(paths[key], "w") as fh:
            json.dump(doc, fh)
    argv = ["sweep", "--set", paths["set"],
            "--s-list", ",".join(repr(s) for s in SWEEP_S),
            "--format", "json", "--out", paths["out"], "--seed", str(op_seed)]
    if windowed:
        argv[3:3] = ["--omega", paths["omega"]]
    desc = {"c": c, "w": w if windowed else None, "s": list(SWEEP_S)}
    problem = ("s_perimeter", e_ivs, omega_ivs, SWEEP_S)

    def call():
        cli = gfp_module("cli")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
        if code == 1:
            errors = gfp_module("errors")
            raise errors.GfpError(f"gfp sweep exited 1: {out.getvalue()!r}")
        if code != 0:
            raise RuntimeError(f"gfp sweep exited {code}: harness misuse")
        with open(paths["out"]) as fh:
            doc = json.load(fh)
        rows = [Row(f"s={r['s']!r}", float(r["value"]), float(r["error"]),
                    "bound", problem + (k,))
                for k, r in enumerate(doc["rows"])]
        rows.append(Row("limit", float(doc["extrapolated_limit"]),
                        float(doc["uncertainty"]), "heuristic",
                        ("mu_halfline", c, w)))
        return rows

    return Op("sweep", desc, call)


def sweep_1d(rng, cycle, work_dir):
    ops = []
    for slot, windowed in enumerate((False, True)):
        ops.append(_sweep_op(rng, work_dir, 2 * cycle + slot, windowed,
                             rng.randrange(2 ** 31)))
    return ops


# ---------------------------------------------------------------------------
# rows-1d: one call at one s on a fresh set
# ---------------------------------------------------------------------------

def rows_1d(rng, cycle, work_dir):
    # shapes rotate with the cycle, not the seed: a half-line row costs
    # half an interval row today, so a seed must not pick the mix
    shapes = [E_SHAPES[(cycle + k) % 3] for k in (0, 1, 2, 1)]
    ops = []

    # slots 0 and 2: perimeter over R and over a window with a near contact
    for slot, windowed in ((0, False), (2, True)):
        e_node, e_ivs = _draw_e_1d(rng, shapes[slot])
        s = grid(rng, 0.1, 0.75)
        if windowed:
            l, r = _draw_window_1d(rng, e_ivs, near=True)
            o_node, o_ivs = _interval(l, r)
        else:
            o_node, o_ivs = {"full": True}, [(-INF, INF)]
        op_seed = rng.randrange(2 ** 31)
        e, omega = _load(e_node, 1), _load(o_node, 1)

        def call(e=e, omega=omega, s=s, op_seed=op_seed,
                 ref=("perimeter", e_ivs, o_ivs, (s,), 0)):
            est = gfp_module("interaction").perimeter(
                e, omega, s, seed=op_seed, dim=1).total
            return [_one(est, "perimeter", "bound", ref)]

        ops.append(Op("perimeter", {"E": e_node, "Omega": o_node, "s": s}, call))

    # slot 1: J^lambda over a window without near contacts
    e_node, e_ivs = _draw_e_1d(rng, shapes[1])
    l, r = _draw_window_1d(rng, e_ivs, near=False)
    o_node, o_ivs = _interval(l, r)
    s = grid(rng, 0.1, 0.75)
    e, omega = _load(e_node, 1), _load(o_node, 1)

    def call_j(e=e, omega=omega, s=s, ref=("jlambda", e_ivs, o_ivs, s)):
        est = gfp_module("interaction").j_lambda(e, omega, s, dim=1).total
        return [_one(est, "j_lambda", "bound", ref)]

    ops.insert(1, Op("j_lambda", {"E": e_node, "Omega": o_node, "s": s}, call_j))

    # slot 3: the indicator seminorm by both routes, s <= 1/4
    e_node, e_ivs = _draw_e_1d(rng, shapes[3])
    s = grid(rng, 0.05, 0.25)
    op_seed = rng.randrange(2 ** 31)
    e = _load(e_node, 1)

    def call_s(e=e, s=s, op_seed=op_seed, ref=("seminorm", e_ivs, s)):
        direct = gfp_module("interaction").seminorm_sq_direct(
            e, s, dim=1, seed=op_seed)
        sp = gfp_module("spectral")
        series = sp.spectral_seminorm_sq(sp.expand(e, SPECTRAL_DEGREE), s)
        return [_one(direct, "direct", "bound", ref),
                Row("spectral", float(series.value), float(series.truncation),
                    "heuristic", ref)]

    ops.append(Op("seminorm", {"E": e_node, "s": s}, call_s))
    return ops


# ---------------------------------------------------------------------------
# mc: the Monte Carlo routes in two dimensions
# ---------------------------------------------------------------------------

# unit normals with two-decimal components: exact in JSON
_NORMALS = sorted({(sx * a, sy * b)
                   for a, b in ((1.0, 0.0), (0.96, 0.28), (0.8, 0.6),
                                (0.6, 0.8), (0.28, 0.96), (0.0, 1.0))
                   for sx in (1.0, -1.0) for sy in (1.0, -1.0)})


def _draw_e_2d(rng, shape):
    if shape == "halfplane":
        n = rng.choice(_NORMALS)
        return {"halfspace": {"normal": [n[0] + 0.0, n[1] + 0.0],
                              "offset": grid(rng, -1, 1)}}
    if shape == "box":
        lo = [grid(rng, -1.5, 0.5) for _ in range(2)]
        hi = [grid(rng, x + 0.5, x + 2.0) for x in lo]
        return {"box": {"lo": lo, "hi": hi}}
    while True:
        center = [grid(rng, -1, 1) for _ in range(2)]
        if math.hypot(*center) >= 0.2:
            return {"ball": {"center": center, "r": grid(rng, 0.5, 1.5)}}


def _draw_window_2d(rng, shape):
    if shape == "full":
        return {"full": True}
    if shape == "box":
        return {"box": {"lo": [grid(rng, -2, -1) for _ in range(2)],
                        "hi": [grid(rng, 1, 2) for _ in range(2)]}}
    return {"ball": {"center": [0.0, 0.0], "r": grid(rng, 1, 2)}}


def _inside(points, node):
    """Membership computed here, independently of gfp.sets."""
    import numpy as np

    (key, val), = node.items()
    if key == "full":
        return np.ones(len(points), dtype=bool)
    if key == "halfspace":
        return points @ np.asarray(val["normal"]) <= val["offset"]
    if key == "box":
        return np.all((points > val["lo"]) & (points < val["hi"]), axis=1)
    d = points - np.asarray(val["center"])
    return np.einsum("ij,ij->i", d, d) < val["r"] ** 2


def _pieces_ok(rng, e_node, o_node):
    """Every piece of the perimeter split carries at least 5 % of the mass.

    gfp samples each piece by rejection, at a cost of 1/mass per draw, and
    skips the interactions of an empty piece: slivers and containment would
    each make one seed's run cost another's several times over.
    """
    import numpy as np

    draws = 50_000
    gen = np.random.default_rng(rng.randrange(2 ** 31))
    pts = gen.standard_normal((draws, 2))
    e_in, o_in = _inside(pts, e_node), _inside(pts, o_node)
    pieces = (e_in, ~e_in) if "full" in o_node else (
        e_in & o_in, ~e_in & o_in, e_in & ~o_in, ~e_in & ~o_in)
    return all(int(p.sum()) >= draws // 20 for p in pieces)


def _mu_ref(e_node, o_node):
    """Closed-form mu where gamma of every piece is a product of erfc's."""
    if "full" in o_node and ("box" in e_node or "halfspace" in e_node):
        return ("mu_2d", e_node, o_node)
    if "box" in o_node and "box" in e_node:
        return ("mu_2d", e_node, o_node)
    return None


def mc(rng, cycle, work_dir):
    # a Latin square over (set, window) shapes: each cycle has one full-space
    # perimeter and two windowed ones; the pairing rotates with the cycle
    shift = cycle % 3
    e_shapes = ("halfplane", "box", "ball")
    o_shapes = ("full", "box", "ball")
    ops = []
    for k, e_shape in enumerate(e_shapes):
        o_shape = o_shapes[(k + shift) % 3]
        while True:
            e_node = _draw_e_2d(rng, e_shape)
            o_node = _draw_window_2d(rng, o_shape)
            if _pieces_ok(rng, e_node, o_node):
                break
        s = grid(rng, 0.1, 0.75)
        p_seed, m_seed = rng.randrange(2 ** 31), rng.randrange(2 ** 31)
        e, omega = _load(e_node, 2), _load(o_node, 2)
        ref = None
        if e_shape == "halfplane" and o_shape == "full":
            # rotation invariance: the 1-D half-line value
            off = e_node["halfspace"]["offset"]
            ref = ("perimeter", [(-INF, off)], [(-INF, INF)], (s,), 0)

        def call_p(e=e, omega=omega, s=s, op_seed=p_seed, ref=ref):
            est = gfp_module("interaction").perimeter(
                e, omega, s, seed=op_seed, dim=2).total
            return [_one(est, "perimeter", "mc", ref)]

        def call_m(e=e, omega=omega, op_seed=m_seed,
                   ref=_mu_ref(e_node, o_node)):
            lv = gfp_module("asymptotics").mu_limit(e, omega, dim=2, seed=op_seed)
            kind = "bound" if lv.error == 0.0 else "mc"
            return [Row("mu", float(lv.mu), float(lv.error), kind, ref)]

        desc = {"E": e_node, "Omega": o_node}
        ops.append(Op("perimeter", dict(desc, s=s), call_p))
        ops.append(Op("mu_limit", desc, call_m))

    for dim, ref_kind in ((1, "seminorm_x"), (2, "seminorm_xy")):
        s = grid(rng, 0.1, 0.6)
        op_seed = rng.randrange(2 ** 31)

        def call_s(dim=dim, s=s, op_seed=op_seed, ref=(ref_kind, s)):
            u = (lambda x: x[:, 0]) if dim == 1 else (lambda x: x[:, 0] * x[:, 1])
            est = gfp_module("interaction").seminorm_sq_direct(
                u, s, dim=dim, seed=op_seed)
            return [_one(est, "seminorm", "mc", ref)]

        u_name = "x0" if dim == 1 else "x0*x1"
        ops.append(Op("seminorm", {"u": u_name, "N": dim, "s": s}, call_s))
    return ops


WORKLOADS = {"sweep-1d": sweep_1d, "rows-1d": rows_1d, "mc": mc}
