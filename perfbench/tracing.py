"""Per-layer spans for the traced run, recorded from outside gfp.

``Tracer.install`` rebinds each layer function in every gfp module that
holds it (``gfp.interaction`` imported ``kernel_batch`` by name, the
package ``__init__`` re-exports most of them), so calls between layers
are seen too.  Spans live in memory as (name, start, end, parent, op)
and are written out when the run ends.  A layer's self time is its span
minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _budget(args, kwargs):
    return kwargs.get("budget", args[4] if len(args) > 4 else None)


# (module, function, counters(args, kwargs, result) -> {name: number})
LAYERS = (
    ("mehler", "kernel_batch",
     lambda a, k, r: {"pairs": len(_arg(a, k, 3, "rsq"))}),
    ("mehler", "kernel_upper_bound_radial", None),
    ("interaction", "perimeter", None),
    ("interaction", "interaction", None),   # counted by Tracer._interaction
    ("interaction", "j_lambda", None),
    ("interaction", "seminorm_sq_direct", None),
    ("measure", "gauss_measure",
     lambda a, k, r: {"mc": int(r.method == "monte-carlo")}),
    ("measure", "sample_gaussian",
     lambda a, k, r: {"draws": int(_arg(a, k, 0, "n"))}),
    ("sets", "contains",
     lambda a, k, r: {"points": math.prod(_arg(a, k, 1, "x").shape[:-1])}),
    ("sets", "to_intervals", None),         # outermost call only
    ("spectral", "expand", lambda a, k, r: {"coeffs": int(r.coeffs.size)}),
    ("spectral", "spectral_seminorm_sq", None),
    ("asymptotics", "sweep", None),
    ("asymptotics", "mu_limit", None),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.counts = defaultdict(float)
        self.stack = []
        self.op = None
        self.to_intervals_depth = 0
        self.originals = []

    # -- installation -------------------------------------------------------

    def install(self):
        for module, func, counters in LAYERS:
            name = f"{module}.{func}"
            original = getattr(importlib.import_module(f"gfp.{module}"), func)
            wrapper = self._wrap(name, original, counters)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "gfp" or mod_name.startswith("gfp.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.originals.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self.originals):
            setattr(mod, attr, original)
        self.originals.clear()

    def _wrap(self, name, fn, counters):
        tracer = self
        clock = time.perf_counter
        if name == "sets.to_intervals":
            def wrapper(*args, **kwargs):
                if tracer.to_intervals_depth:
                    return fn(*args, **kwargs)
                tracer.to_intervals_depth += 1
                try:
                    return tracer._span(name, fn, args, kwargs, None, clock)
                finally:
                    tracer.to_intervals_depth -= 1
        elif name == "interaction.interaction":
            def wrapper(*args, **kwargs):
                return tracer._interaction(name, fn, args, kwargs, clock)
        else:
            def wrapper(*args, **kwargs):
                return tracer._span(name, fn, args, kwargs, counters, clock)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- recording ----------------------------------------------------------

    def _span(self, name, fn, args, kwargs, counters, clock):
        parent = self.stack[-1] if self.stack else None
        span = [name, clock(), None, parent, self.op]
        index = len(self.spans)
        self.spans.append(span)
        self.stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = clock()
            self.stack.pop()
        self.counts[f"{name}.calls"] += 1
        if counters is not None:
            for key, value in counters(args, kwargs, result).items():
                self.counts[f"{name}.{key}"] += value
        return result

    def _interaction(self, name, fn, args, kwargs, clock):
        budget = _budget(args, kwargs)
        before = budget.used if budget is not None else None
        result = self._span(name, fn, args, kwargs, None, clock)
        evals = budget.used - before if budget is not None else 0
        self.counts["interaction.kernel_evals"] += evals
        if result.value == 0.0:
            self.counts["interaction.interaction.zero_calls"] += 1
            self.counts["interaction.wasted_evals"] += evals
        return result

    # -- summary ------------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return out

    def metrics(self):
        """Every per-layer metric by name, zero for layers never entered."""
        self_s = self.self_times()
        c = self.counts
        out = {}
        for module, func, _ in LAYERS:
            name = f"{module}.{func}"
            out[f"{name}.calls"] = c[f"{name}.calls"]
            out[f"{name}.self_s"] = self_s[name]
        out["mehler.kernel_batch.pairs"] = c["mehler.kernel_batch.pairs"]
        out["mehler.kernel_batch.pairs_per_s"] = (
            c["mehler.kernel_batch.pairs"] / self_s["mehler.kernel_batch"]
            if self_s["mehler.kernel_batch"] > 0 else 0.0)
        evals = c["interaction.kernel_evals"]
        out["interaction.kernel_evals"] = evals
        out["interaction.wasted_evals_frac"] = (
            c["interaction.wasted_evals"] / evals if evals else 0.0)
        calls = c["interaction.interaction.calls"]
        out["interaction.interaction.zero_frac"] = (
            c["interaction.interaction.zero_calls"] / calls if calls else 0.0)
        gm = c["measure.gauss_measure.calls"]
        out["measure.gauss_measure.mc_frac"] = (
            c["measure.gauss_measure.mc"] / gm if gm else 0.0)
        out["measure.sample_gaussian.draws"] = c["measure.sample_gaussian.draws"]
        out["sets.contains.points"] = c["sets.contains.points"]
        out["spectral.expand.coeffs"] = c["spectral.expand.coeffs"]
        return out

    def counts_by_op(self):
        """Span counts per operation, in op order: they repeat for a seed."""
        out = defaultdict(lambda: defaultdict(int))
        for name, _, _, _, op in self.spans:
            out[op][name] += 1
        return [dict(sorted(out[op].items())) for op in sorted(out)]
