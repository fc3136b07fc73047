"""The desk-scale demos run to completion.

Demo 04 is left out: it repeats the example's full solve, which the
acceptance suite's turnpike check already runs.
"""
from __future__ import annotations

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


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
