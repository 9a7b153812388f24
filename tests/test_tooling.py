"""Source hygiene: what importing gfp loads, and what gfp imports."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys

import gfp

SRC = os.path.dirname(os.path.abspath(gfp.__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_import_leaves_scipy_unloaded():
    # numpy is gfp's only dependency; scipy.special alone would add about
    # two thirds of the import time and ~25 MB of RSS
    code = ("import sys, gfp, gfp.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.strip() == "[]"


def _imported_modules(path):
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):   # every scope, so lazy imports count too
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_module_imports_scipy():
    hits = {name: sorted(m for m in _imported_modules(os.path.join(SRC, name))
                         if m.split(".")[0] == "scipy")
            for name in sorted(os.listdir(SRC)) if name.endswith(".py")}
    assert {k: v for k, v in hits.items() if v} == {}


def _unused_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # the package __init__ imports only to re-export
    unused = {name: _unused_imports(os.path.join(SRC, name))
              for name in sorted(os.listdir(SRC))
              if name.endswith(".py") and name != "__init__.py"}
    assert {k: v for k, v in unused.items() if v} == {}


def test_src_stays_below_seed_size():
    # the package started at 2,469 lines; the ceiling follows every cut,
    # so later changes may only shrink it
    total = 0
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                total += sum(1 for _ in fh)
    assert total <= 2279


def test_traced_layers_exist():
    # perfbench's --trace 1 wraps these functions by name and reads
    # kernel_batch's rsq argument; a cleanup that drops one must fail here
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{func}" for module, func, _ in tracing.LAYERS
               if not callable(getattr(importlib.import_module(f"gfp.{module}"),
                                       func, None))]
    assert missing == []
    kernel_batch = importlib.import_module("gfp.mehler").kernel_batch
    assert "rsq" in inspect.signature(kernel_batch).parameters
