"""Compositional set language: primitives, Boolean algebra, JSON i/o.

Sets live in R^N.  Primitives cover every concrete geometry the toolkit
needs (half-spaces, centered/off-center balls, boxes, 1-D interval unions)
and are closed under complement/union/intersection/difference.  In one
dimension every expression reduces exactly to a finite union of disjoint
intervals, which is what the closed-form measure and the graded quadrature
build on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

_UNIT_TOL = 1e-12


# ---------------------------------------------------------------------------
# node types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfSpace:
    """{x : x . normal <= offset}; normal must have unit length."""

    normal: tuple[float, ...]
    offset: float

    def __post_init__(self):  # tuples, also from lists: sets are hashed
        object.__setattr__(self, "normal", tuple(self.normal))
        nrm = math.sqrt(sum(c * c for c in self.normal))
        if abs(nrm - 1.0) > _UNIT_TOL:
            raise ValueError(f"half-space normal must be unit length, got |n|={nrm!r}")


@dataclass(frozen=True)
class Ball:
    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(self.center))
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True)
class Box:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(self.lo))
        object.__setattr__(self, "hi", tuple(self.hi))
        if len(self.lo) != len(self.hi):
            raise ValueError("box corners must have equal dimension")
        if not all(a < b for a, b in zip(self.lo, self.hi)):
            raise ValueError("box requires lo < hi componentwise")


@dataclass(frozen=True)
class IntervalUnion:
    """Finite union of disjoint open intervals; 1-D only.  Endpoints may be inf."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev = -math.inf
        for a, b in self.intervals:
            if not a < b:
                raise ValueError(f"degenerate interval ({a}, {b})")
            if a < prev:
                raise ValueError("intervals must be sorted and pairwise disjoint")
            prev = b


@dataclass(frozen=True)
class FullSpace:
    pass


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Complement:
    inner: "SetExpr"


@dataclass(frozen=True)
class Union:
    left: "SetExpr"
    right: "SetExpr"


@dataclass(frozen=True)
class Intersection:
    left: "SetExpr"
    right: "SetExpr"


@dataclass(frozen=True)
class Difference:
    left: "SetExpr"
    right: "SetExpr"


SetExpr = (
    HalfSpace | Ball | Box | IntervalUnion | FullSpace | Empty
    | Complement | Union | Intersection | Difference
)


# ---------------------------------------------------------------------------
# dimension bookkeeping
# ---------------------------------------------------------------------------

def dimension(expr: SetExpr) -> int | None:
    """Intrinsic dimension of the expression, or None if unconstrained."""
    if isinstance(expr, HalfSpace):
        return len(expr.normal)
    if isinstance(expr, Ball):
        return len(expr.center)
    if isinstance(expr, Box):
        return len(expr.lo)
    if isinstance(expr, IntervalUnion):
        return 1
    if isinstance(expr, (FullSpace, Empty)):
        return None
    if isinstance(expr, Complement):
        return dimension(expr.inner)
    dl, dr = dimension(expr.left), dimension(expr.right)
    if dl is not None and dr is not None and dl != dr:
        raise DimensionMismatchError(f"mixed dimensions {dl} and {dr} in expression")
    return dl if dl is not None else dr


def _check_dim(expr: SetExpr, n: int) -> None:
    d = dimension(expr)
    if d is not None and d != n:
        raise DimensionMismatchError(f"point dimension {n} vs set dimension {d}")


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def contains(expr: SetExpr, x: np.ndarray) -> np.ndarray:
    """Vectorized membership for points x of shape (..., N) -> bool array."""
    x = np.asarray(x, dtype=float)
    _check_dim(expr, x.shape[-1])
    return _contains(expr, x)


def _contains(expr: SetExpr, x: np.ndarray) -> np.ndarray:
    if isinstance(expr, HalfSpace):
        return x @ np.asarray(expr.normal) <= expr.offset
    if isinstance(expr, Ball):  # per coordinate: an einsum is ~4x slower
        dsq = sum((x[..., k] - c) ** 2 for k, c in enumerate(expr.center))
        return dsq < expr.radius ** 2
    if isinstance(expr, Box):
        out = np.ones(x.shape[:-1], dtype=bool)
        for k, (lo, hi) in enumerate(zip(expr.lo, expr.hi)):
            out &= (x[..., k] > lo) & (x[..., k] < hi)
        return out
    if isinstance(expr, IntervalUnion):
        t = x[..., 0]
        out = np.zeros(t.shape, dtype=bool)
        for a, b in expr.intervals:
            out |= (t > a) & (t < b)
        return out
    if isinstance(expr, FullSpace):
        return np.ones(x.shape[:-1], dtype=bool)
    if isinstance(expr, Empty):
        return np.zeros(x.shape[:-1], dtype=bool)
    if isinstance(expr, Complement):
        return ~_contains(expr.inner, x)
    if isinstance(expr, Union):
        return _contains(expr.left, x) | _contains(expr.right, x)
    if isinstance(expr, Intersection):
        return _contains(expr.left, x) & _contains(expr.right, x)
    if isinstance(expr, Difference):
        return _contains(expr.left, x) & ~_contains(expr.right, x)
    raise TypeError(f"not a set expression: {expr!r}")


def complement(expr: SetExpr) -> SetExpr:
    """Complement with trivial simplifications."""
    if isinstance(expr, FullSpace):
        return Empty()
    if isinstance(expr, Empty):
        return FullSpace()
    if isinstance(expr, Complement):
        return expr.inner
    return Complement(expr)


def intersect(left: SetExpr, right: SetExpr) -> SetExpr:
    """Intersection that folds an Empty operand to Empty and drops a
    FullSpace one."""
    if Empty() in (left, right):
        return Empty()
    if isinstance(left, FullSpace) or isinstance(right, FullSpace):
        return right if isinstance(left, FullSpace) else left
    return Intersection(left, right)


# ---------------------------------------------------------------------------
# 1-D interval algebra
# ---------------------------------------------------------------------------

def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sort, drop degenerate pieces and fuse overlapping/touching ones."""
    ivs = sorted((a, b) for a, b in intervals if a < b)
    out: list[tuple[float, float]] = []
    for a, b in ivs:
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _complement_1d(ivs: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out = []
    cur = -math.inf
    for a, b in ivs:
        if cur < a:
            out.append((cur, a))
        cur = b
    if cur < math.inf:
        out.append((cur, math.inf))
    return out


def _intersect_1d(p: list, q: list) -> list[tuple[float, float]]:
    out = []
    i = j = 0
    while i < len(p) and j < len(q):
        a = max(p[i][0], q[j][0])
        b = min(p[i][1], q[j][1])
        if a < b:
            out.append((a, b))
        if p[i][1] < q[j][1]:
            i += 1
        else:
            j += 1
    return out


def to_intervals(expr: SetExpr) -> list[tuple[float, float]]:
    """Exact reduction of a 1-D expression to disjoint sorted open intervals.

    Boundary points carry no Gaussian mass, so the open/closed distinction
    is immaterial for every downstream use.
    """
    d = dimension(expr)
    if d not in (None, 1):
        raise DimensionMismatchError("interval reduction requires a 1-D expression")
    if isinstance(expr, HalfSpace):
        n = expr.normal[0]
        return [(-math.inf, expr.offset / n)] if n > 0 else [(expr.offset / n, math.inf)]
    if isinstance(expr, Ball):
        c = expr.center[0]
        return [(c - expr.radius, c + expr.radius)]
    if isinstance(expr, Box):
        return [(expr.lo[0], expr.hi[0])]
    if isinstance(expr, IntervalUnion):
        return list(expr.intervals)
    if isinstance(expr, FullSpace):
        return [(-math.inf, math.inf)]
    if isinstance(expr, Empty):
        return []
    if isinstance(expr, Complement):
        return _complement_1d(to_intervals(expr.inner))
    if isinstance(expr, Union):
        return _merge(to_intervals(expr.left) + to_intervals(expr.right))
    if isinstance(expr, Intersection):
        return _intersect_1d(to_intervals(expr.left), to_intervals(expr.right))
    if isinstance(expr, Difference):
        return _intersect_1d(
            to_intervals(expr.left), _complement_1d(to_intervals(expr.right))
        )
    raise TypeError(f"not a set expression: {expr!r}")


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

def _node_to_json(expr: SetExpr) -> dict:
    if isinstance(expr, HalfSpace):
        return {"halfspace": {"normal": list(expr.normal), "offset": expr.offset}}
    if isinstance(expr, Ball):
        return {"ball": {"center": list(expr.center), "r": expr.radius}}
    if isinstance(expr, Box):
        return {"box": {"lo": list(expr.lo), "hi": list(expr.hi)}}
    if isinstance(expr, IntervalUnion):
        return {"intervals": [list(iv) for iv in expr.intervals]}
    if isinstance(expr, FullSpace):
        return {"full": True}
    if isinstance(expr, Empty):
        return {"empty": True}
    if isinstance(expr, Complement):
        return {"not": _node_to_json(expr.inner)}
    if isinstance(expr, Union):
        return {"or": [_node_to_json(expr.left), _node_to_json(expr.right)]}
    if isinstance(expr, Intersection):
        return {"and": [_node_to_json(expr.left), _node_to_json(expr.right)]}
    if isinstance(expr, Difference):
        return {"diff": [_node_to_json(expr.left), _node_to_json(expr.right)]}
    raise TypeError(f"not a set expression: {expr!r}")


def _node_from_json(d: dict) -> SetExpr:
    if len(d) != 1:
        raise ValueError(f"set node must have exactly one key, got {sorted(d)}")
    (key, val), = d.items()
    if key == "halfspace":
        return HalfSpace(tuple(val["normal"]), float(val["offset"]))
    if key == "ball":
        return Ball(tuple(val["center"]), float(val["r"]))
    if key == "box":
        return Box(tuple(val["lo"]), tuple(val["hi"]))
    if key == "intervals":
        return IntervalUnion(tuple((float(a), float(b)) for a, b in val))
    if key == "full":
        return FullSpace()
    if key == "empty":
        return Empty()
    if key == "not":
        return Complement(_node_from_json(val))
    if key in ("or", "and", "diff"):
        left, right = (_node_from_json(v) for v in val)
        cls = {"or": Union, "and": Intersection, "diff": Difference}[key]
        return cls(left, right)
    raise ValueError(f"unknown set node {key!r}")


def set_to_json(expr: SetExpr, dim: int | None = None) -> str:
    """Serialize ``{"dim": N, "set": <node>}``; dim inferred when omitted."""
    if dim is None:
        dim = dimension(expr)
        if dim is None:
            raise ValueError("dimension is unconstrained; pass dim explicitly")
    _check_dim(expr, dim)
    return json.dumps({"dim": dim, "set": _node_to_json(expr)})


def set_from_json(text: str) -> tuple[SetExpr, int]:
    doc = json.loads(text)
    expr = _node_from_json(doc["set"])
    dim = int(doc["dim"])
    _check_dim(expr, dim)
    return expr, dim
