"""The desk-scale demos run to completion, and every demo imports only
names the package has.

Demo 04 is left out of the runs: it repeats the example's full solve, which
the acceptance suite's turnpike check already runs.  Its imports are still
checked, without running it.
"""
from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEMOS = [
    "01_flows_and_mass.py",
    "02_stationary_expansion.py",
    "03_stability_spectrum.py",
    "05_finite_population.py",
]
ALL_DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("demo", ALL_DEMOS)
def test_demo_imports_exist(demo):
    with open(os.path.join(ROOT, "demos", demo), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=demo)
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "hbmfg" for alias in node.names]
    assert imports, f"{demo} imports nothing from hbmfg"
    missing = [f"{mod}.{name}" for mod, name in imports
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing, f"{demo} imports missing names: {missing}"
