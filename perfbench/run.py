"""Benchmark for gfp: seeded closed-loop workloads checked against mpmath.

Run from the root of a gfp checkout:

    python3 perfbench/run.py --workload sweep-1d --seed 1 --seconds 10 --trace 0

One client, one process, one thread (BLAS/OpenMP pinned to one thread in
this process and its children).  The client drives gfp's public API and
CLI from outside, imported from ./src.  It executes whole cycles of the
workload (see workloads.py) until --seconds have passed, then checks every
result it can against a reference computed here (refs.py, untimed).

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, measured without any wrapper;
with --trace 1 they are the per-layer ones: every operation runs once
untraced and once traced (tracing.py), the difference is the tracing
overhead and the two runs must agree byte for byte.  The line before it
holds the full record (every accuracy metric with its sample count, the
machine and versions); it is also written under .perfbench_out/.

An operation fails when it raises a GfpError, returns a non-finite value,
or misses its reference by more than its reported error (3x for Monte
Carlo rows); every such miss is listed in the record and counted in
``failed``.  ``correct`` is false when an operation raised or returned a
non-finite value, when a value sits more than ten of its bars from the
reference (a wrong value, not an overconfident bar), or when a rerun of
the same seed gives other bytes.  Anything else that goes wrong is a
harness bug and aborts the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
SETUP_CODE = ("import time; t0 = time.perf_counter(); import gfp, gfp.cli; "
              "print(repr(time.perf_counter() - t0))")
DIGITS_CAP = 16.0
MC_ALLOWANCE = 3.0   # a Monte Carlo row may sit three standard errors off
ROUNDING = 1e-14     # relative slack for last-digit rounding of closed forms
WRONG_BARS = 10.0    # beyond ten bars a value is wrong, not just overconfident


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _benchmark_spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _import_gfp(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gfp", "__init__.py")):
        _fail(f"no gfp sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import gfp  # noqa: F401
    import gfp.cli  # noqa: F401
    if not os.path.abspath(gfp.__file__).startswith(src + os.sep):
        _fail(f"gfp imported from {gfp.__file__}, not from {src}")
    return src


def measure_setup(src):
    """Median import time of gfp and gfp.cli in fresh processes."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for k in range(SETUP_REPEATS + 1):   # the first one may compile .pyc
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            _fail(f"import gfp failed in a fresh process: {done.stderr}")
        if k:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def environment(root, seed, workload):
    import mpmath
    import numpy
    import scipy

    rev = None
    try:
        # the ceiling keeps git from reading repositories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              env=env)
        if done.returncode == 0:
            rev = done.stdout.strip()
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "git_rev": rev, "machine": platform.machine(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "client": "closed loop, 1 client, 1 process, 1 thread"}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Plan:
    """The workload's cycles, drawn from the seed on first use and kept."""

    def __init__(self, workload, seed, work_dir):
        import random

        import workloads

        self.rng = random.Random(f"{workload}/{seed}")
        self.make = workloads.WORKLOADS[workload]
        self.work_dir = work_dir
        self.cycles = []

    def cycle(self, m):
        while len(self.cycles) <= m:
            self.cycles.append(self.make(self.rng, len(self.cycles),
                                         self.work_dir))
        return self.cycles[m]


def _timed(op, index, cycle):
    from gfp.errors import GfpError

    t0 = time.perf_counter()
    try:
        rows, error = op.call(), None
    except GfpError as exc:
        rows, error = [], f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    return {"op": index, "cycle": cycle, "kind": op.kind, "inputs": op.desc,
            "latency_s": latency, "error": error, "rows": rows}


def run_loop(plan, seconds, tracer=None):
    """Whole cycles until ``seconds`` pass.

    With a tracer every operation runs twice, untraced and traced, in an
    order that alternates from one operation to the next so that warm-up
    does not land on one side.  Returns (untraced, traced) records.
    """
    records, traced = [], []
    start = time.perf_counter()
    m = 0
    while True:
        for op in plan.cycle(m):
            index = len(records)
            if tracer is None:
                records.append(_timed(op, index, m))
                continue
            for with_tracer in ((False, True) if index % 2 else (True, False)):
                if with_tracer:
                    tracer.op = index
                    tracer.install()
                    traced.append(_timed(op, index, m))
                    tracer.uninstall()
                else:
                    records.append(_timed(op, index, m))
        m += 1
        if time.perf_counter() - start >= seconds:
            return records, traced


# ---------------------------------------------------------------------------
# checks against the references
# ---------------------------------------------------------------------------

def reference_value(references, ref):
    """The independent value for a row's reference problem, as a float."""
    import mpmath as mp

    import refs

    kind = ref[0]
    if kind == "perimeter":
        _, e, omega, s_list, k = ref
        return float(references.perimeter(e, omega, s_list)[k])
    if kind == "s_perimeter":
        _, e, omega, s_list, k = ref
        return float(s_list[k] * references.perimeter(e, omega, s_list)[k])
    if kind == "jlambda":
        return float(references.jlambda(*ref[1:]))
    if kind == "seminorm":
        return float(references.seminorm_indicator(*ref[1:]))
    if kind in ("seminorm_x", "seminorm_xy"):
        s = mp.mpf(ref[1])
        dim_factor = 1 if kind == "seminorm_x" else 2 ** s
        return float(2 * dim_factor * mp.gamma(1 - s) / s)
    if kind == "mu_halfline":
        return refs.mu_halfline_window(ref[1], ref[2])
    if kind == "mu_2d":
        return refs.mu_2d(ref[1], ref[2])
    raise ValueError(f"unknown reference {kind!r}")


def check(records, references):
    """Annotate rows with their references and mark failed operations.

    Returns (wrong, misses): ``wrong`` lists what makes the run incorrect,
    ``misses`` every row whose bar does not cover its reference.
    """
    wrong, misses = [], []
    for rec in records:
        rec["failed"] = rec["error"] is not None
        if rec["failed"]:
            wrong.append(f"op {rec['op']} raised {rec['error']}")
        rec["checked"] = []
        for row in rec["rows"]:
            out = {"label": row.label, "value": row.value, "error": row.error,
                   "kind": row.kind, "ref": None, "digits": None, "miss": False}
            rec["checked"].append(out)
            if not (math.isfinite(row.value) and math.isfinite(row.error)):
                rec["failed"] = True
                wrong.append(f"op {rec['op']} {row.label}: non-finite result")
                continue
            if row.ref is None:
                continue
            ref = reference_value(references, row.ref)
            dev = abs(row.value - ref)
            bar = (MC_ALLOWANCE if row.kind == "mc" else 1.0) * row.error
            slack = ROUNDING * abs(ref)
            out["ref"] = ref
            out["digits"] = (DIGITS_CAP if dev == 0 else
                             min(DIGITS_CAP, -math.log10(dev / abs(ref))))
            if dev <= bar + slack:
                continue
            out["miss"] = True
            rec["failed"] = True
            note = (f"op {rec['op']} {rec['kind']} {row.label}: {row.value!r} "
                    f"is {dev:.3g} from {ref!r}, bar {bar:.3g} ({row.kind})")
            misses.append(note)
            if dev > WRONG_BARS * bar + slack:
                wrong.append(note)
    return wrong, misses


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _tail(latencies):
    """Latency at the highest percentile with >= 10 samples beyond it.

    With 10 samples or fewer no percentile has 10 beyond it; the maximum
    is reported then, as percentile 100.
    """
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= 10:
        return ordered[-1], 100.0, n
    pct = 100.0 * (1.0 - 10.0 / n)
    return ordered[math.ceil(pct / 100.0 * n) - 1], pct, n


def end_to_end(records, setup, peak_rss_mb):
    latencies = [r["latency_s"] for r in records]
    tail, pct, n = _tail(latencies)
    busy = sum(latencies)
    return {
        "setup_s": setup,
        "ops_per_s": len(records) / busy,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "peak_rss_mb": peak_rss_mb,
    }, {"latency_tail_percentile": pct, "latency_samples": n,
        "busy_s": busy}


def accuracy(records, workload):
    """The accuracy metrics of the record; None where no row qualifies."""
    rows = [c for r in records for c in r["checked"]]
    with_ref = [c for c in rows if c["digits"] is not None]
    rel_err = [c["error"] / abs(c["value"]) for c in rows
               if c["value"] != 0 and math.isfinite(c["value"])]
    out = {
        "failed_frac": {"value": sum(r["failed"] for r in records) / len(records),
                        "unit": "ratio", "n": len(records)},
        "digits_min": {"value": min((c["digits"] for c in with_ref), default=None),
                       "unit": "digits", "n": len(with_ref)},
        "err_bar_rel_p50": {"value": statistics.median(rel_err) if rel_err else None,
                            "unit": "ratio", "n": len(rel_err)},
        "bar_misses": {"value": sum(c["miss"] for c in rows), "unit": "count",
                       "n": len(with_ref)},
    }
    if workload == "sweep-1d":
        limits = [c for c in rows if c["label"] == "limit" and c["ref"]]
        out["limit_rel_dev"] = {
            "value": statistics.median(abs(c["value"] - c["ref"]) / c["ref"]
                                       for c in limits),
            "unit": "ratio", "n": len(limits)}
        out["limit_unc_rel"] = {
            "value": statistics.median(c["error"] / c["ref"] for c in limits),
            "unit": "ratio", "n": len(limits)}
    return out


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _digest(rec):
    rows = [[r.label, repr(r.value), repr(r.error), r.kind] for r in rec["rows"]]
    blob = json.dumps([rec["kind"], rec["inputs"], rec["error"], rows])
    return hashlib.sha256(blob.encode()).hexdigest()


def code_id(root):
    """Hash of the gfp sources and of this benchmark: digests are per code."""
    h = hashlib.sha256()
    for base in (os.path.join(root, "src", "gfp"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def compare_with_earlier(path, digests, what):
    """Same seed, same bytes: compare with the earlier runs' common prefix."""
    problems = []
    earlier = []
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
    for k, (a, b) in enumerate(zip(earlier, digests)):
        if a != b:
            problems.append(f"op {k}: {what} differ from an earlier run "
                            "with the same seed")
    longest = digests if len(digests) >= len(earlier) else earlier
    with open(path + ".tmp", "w") as fh:
        json.dump(longest, fh)
    os.replace(path + ".tmp", path)
    return problems


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:   # before numpy loads, here and in the children
        os.environ[var] = "1"

    root = os.getcwd()
    spec = _benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        _fail(f"unknown workload {args.workload!r}; choose from {names}")
    src = _import_gfp(root)
    sys.path.insert(0, HERE)
    out_dir = os.path.join(root, ".perfbench_out")
    work_dir = os.path.join(out_dir, f"work-{args.workload}-{args.seed}")
    os.makedirs(work_dir, exist_ok=True)

    setup = setup_samples = None
    if not args.trace:
        setup, setup_samples = measure_setup(src)
    plan = Plan(args.workload, args.seed, work_dir)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    records, traced = run_loop(plan, args.seconds, tracer)
    problems = []
    layer = None
    if args.trace:
        for a, b in zip(records, traced):
            if _digest(a) != _digest(b):
                problems.append(f"op {a['op']}: traced rerun gave other bytes")
        untraced_s = sum(r["latency_s"] for r in records)
        traced_s = sum(r["latency_s"] for r in traced)
        layer = tracer.metrics()
        layer["trace.overhead_s"] = traced_s - untraced_s
        layer["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans,
                       "counts_by_op": tracer.counts_by_op()}, fh)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import refs

    references = refs.References(os.path.join(out_dir, "refs-cache.json"))
    wrong, misses = check(records, references)
    problems += wrong
    references.save()
    stem = f"{args.workload}-{args.seed}-{code_id(root)}"
    problems += compare_with_earlier(
        os.path.join(out_dir, f"digests-{stem}.json"),
        [_digest(r) for r in records], "results")
    if args.trace:
        problems += compare_with_earlier(
            os.path.join(out_dir, f"counts-{stem}.json"),
            tracer.counts_by_op(), "layer counts")

    if args.trace:
        metrics = {m["name"]: {"value": float(layer[m["name"]]), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values, timing = end_to_end(records, setup, peak_rss_mb)
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for m in spec["end_to_end" if not args.trace else "per_layer"]:
        if m["name"] not in metrics or metrics[m["name"]]["unit"] != m["unit"]:
            raise RuntimeError(f"metric {m['name']} missing or without its unit")

    failed = sum(r["failed"] for r in records)
    detail = {
        "environment": environment(root, args.seed, args.workload),
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": records[-1]["cycle"] + 1,
        "accuracy": accuracy(records, args.workload),
        "problems": problems,
        "misses": misses,
        "ops": [{k: v for k, v in r.items() if k != "rows"} for r in records],
    }
    if args.trace:
        detail["per_layer"] = layer
    else:
        detail["end_to_end"] = dict(metrics, setup_samples=setup_samples,
                                    **timing)
    with open(os.path.join(out_dir, f"result-{args.workload}-{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"detail": {k: detail[k] for k in
                                 ("environment", "cycles", "accuracy", "problems",
                                  "misses")}}))
    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
