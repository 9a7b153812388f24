"""Command-line front end.

Thin wrappers over the library: parse JSON set descriptions, dispatch
one computation, write CSV/JSON output atomically, and print a single
summary line ``<command> value=<v> err=<e>``.

Exit codes: 0 success, 1 numerical failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import asymptotics, sets, spectral
from .errors import GfpError, SingularInputError
from .interaction import j_lambda, perimeter
from .mehler import REL_TOL, kernel_K


def _load_set(path: str) -> tuple[sets.SetExpr, int]:
    with open(path) as fh:
        return sets.set_from_json(fh.read())


def _load_pair(args, parser) -> tuple[sets.SetExpr, sets.SetExpr, int]:
    """E from --set and Omega from --omega (the full space by default)."""
    e, dim = _load_set(args.set)
    omega, odim = (_load_set(args.omega) if args.omega
                   else (sets.FullSpace(), dim))
    if odim != dim:
        parser.error("E and Omega dimensions differ")
    return e, omega, dim


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gfp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, text: str) -> None:
    if args.out:
        _atomic_write(args.out, text)


def _summary(command: str, value: float, err: float) -> None:
    print(f"{command} value={value!r} err={err!r}")


def _emit_row(args, est) -> None:
    """One (s, value, error, method) row as CSV or JSON, plus the summary."""
    if args.format == "json":
        _emit(args, json.dumps({"s": args.s, "value": est.value,
                                "error": est.error, "method": est.method}))
    else:
        _emit(args, "s,value,error,method\n"
              f"{args.s!r},{est.value!r},{est.error!r},{est.method}\n")
    _summary(args.command, est.value, est.error)


def _s_value(text: str) -> float:
    """argparse type of --s: a float in (0, 1)."""
    s = float(text)
    if not 0 < s < 1:
        raise argparse.ArgumentTypeError(f"s must lie in (0, 1), got {text}")
    return s


def _s_list(text: str) -> list[float]:
    """argparse type of --s-list: comma-separated values in (0, 1)."""
    s_list = [_s_value(tok) for tok in text.split(",") if tok.strip()]
    if not s_list:
        raise argparse.ArgumentTypeError("no s value given")
    return s_list


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_kernel(args, parser) -> int:
    if not 0 < args.sigma < 2:
        parser.error("--sigma must lie in (0, 2)")
    x = [float(t) for t in args.x.split(",")]
    y = [float(t) for t in args.y.split(",")]
    kv = kernel_K(args.sigma, x, y, rel_tol=args.tol)
    _emit(args, json.dumps({"value": kv.value, "error": kv.error_bound}))
    _summary("kernel", kv.value, kv.error_bound)
    return 0


def _cmd_perimeter(args, parser) -> int:
    e, omega, dim = _load_pair(args, parser)
    _emit_row(args, perimeter(e, omega, args.s, seed=args.seed,
                              dim=dim).total)
    return 0


def _cmd_jlambda(args, parser) -> int:
    e, omega, dim = _load_pair(args, parser)
    _emit_row(args, j_lambda(e, omega, args.s, dim=dim).total)
    return 0


def _cmd_sweep(args, parser) -> int:
    e, omega, dim = _load_pair(args, parser)
    result = asymptotics.sweep(e, omega, args.s_list, seed=args.seed,
                               dim=dim)
    if args.format == "json":
        _emit(args, result.to_json())
    else:
        fit = (f"# fit a={result.fit_coefficients[0]!r}"
               f" b={result.fit_coefficients[1]!r}"
               f" c={result.fit_coefficients[2]!r}"
               f" residual={result.fit_residual!r}\n")
        _emit(args, result.to_csv() + fit)
    _summary("sweep", result.extrapolated_limit, result.uncertainty)
    return 0


def _cmd_limit(args, parser) -> int:
    e, omega, dim = _load_pair(args, parser)
    lv = asymptotics.mu_limit(e, omega, dim=dim)
    _emit(args, json.dumps({"mu": lv.mu, "error": lv.error,
                            "method": lv.method}))
    _summary("limit", lv.mu, lv.error)
    return 0


def _cmd_spectral(args, parser) -> int:
    if args.u == "chi":
        if not args.set:
            parser.error("--u chi requires --set")
        if args.s >= 0.5:
            parser.error("--u chi requires --s < 1/2: the seminorm of an "
                         "indicator with a boundary point is infinite there")
        e, dim = _load_set(args.set)
        if dim != 1:
            parser.error("spectral expansion supports N = 1")
        exp = spectral.expand(e, args.degree)
    elif args.u.startswith("h") and args.u[1:].isdigit():
        n = int(args.u[1:])
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        exp = spectral.HermiteExpansion(coeffs)
    else:
        parser.error("--u must be 'chi' or 'h<n>'")
    sn = spectral.spectral_seminorm_sq(exp, args.s)
    _emit(args, json.dumps({"s": args.s, "value": sn.value,
                            "truncation": sn.truncation,
                            "ms_limit": spectral.ms_limit(exp)}))
    _summary("spectral", sn.value, sn.truncation)
    return 0


def _cmd_example(args, parser) -> int:
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    ex = asymptotics.divergent_example(args.pairs, args.s)
    _emit(args, json.dumps({"s": ex.s, "pairs": ex.pairs,
                            "total_length": ex.total_length,
                            "lower_bound": ex.lower_bound}))
    _summary("example", ex.lower_bound, 0.0)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_FLAGS = {
    "--seed": dict(type=int, default=0),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--tol": dict(type=float, default=REL_TOL),
    "--out": dict(default=None),
}


def _add_flags(sp, *names) -> None:
    """The shared flags a subcommand reads; every subcommand takes --out."""
    for name in names + ("--out",):
        sp.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfp",
        description="Fractional Gaussian perimeters and their small-s limits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="subordinated Mehler kernel at a pair")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--x", required=True, help="comma-separated coordinates")
    p.add_argument("--y", required=True, help="comma-separated coordinates")
    _add_flags(p, "--tol")
    p.set_defaults(run=_cmd_kernel)

    for name, fn, helptext, flags in (
        ("perimeter", _cmd_perimeter, "fractional Gaussian perimeter",
         ("--seed", "--format")),
        ("jlambda", _cmd_jlambda, "Lebesgue-kernel Gaussian functional",
         ("--format",)),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--set", required=True, help="E as JSON file")
        p.add_argument("--omega", default=None, help="Omega as JSON file")
        p.add_argument("--s", type=_s_value, required=True)
        _add_flags(p, *flags)
        p.set_defaults(run=fn)

    p = sub.add_parser("sweep", help="s * perimeter sweep with extrapolation")
    p.add_argument("--set", required=True)
    p.add_argument("--omega", default=None)
    p.add_argument("--s-list", type=_s_list,
                   default=asymptotics.DEFAULT_S_LIST,
                   help="comma-separated decreasing s values")
    _add_flags(p, "--seed", "--format")
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("limit", help="small-s limit mu from Gaussian measures")
    p.add_argument("--set", required=True)
    p.add_argument("--omega", default=None)
    _add_flags(p)
    p.set_defaults(run=_cmd_limit)

    p = sub.add_parser("spectral", help="Hermite spectral seminorm")
    p.add_argument("--u", default="chi", help="'chi' (uses --set) or 'h<n>'")
    p.add_argument("--set", default=None)
    p.add_argument("--s", type=_s_value, required=True)
    p.add_argument("--degree", type=int, default=10 ** 5)
    _add_flags(p)
    p.set_defaults(run=_cmd_spectral)

    p = sub.add_parser("example", help="divergent-perimeter lower bound")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--s", type=_s_value, required=True)
    _add_flags(p)
    p.set_defaults(run=_cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except SingularInputError as exc:
        print(f"error: singular input: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GfpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
