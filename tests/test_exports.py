"""Every exported name and every benchmark hook resolves on the package.

perfbench/spans.py wraps package functions by (module, attribute); a name
removed from the package would only fail there when a traced run starts.
A short traced run checks that its spans and meta keys yield every
per-layer metric that BENCHMARK.json lists.
"""
from __future__ import annotations

import importlib
import importlib.util
import json
import os
import pkgutil

import hbmfg

SPANS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_hooks_resolve():
    spans = _spans()
    for mod, attr, _span in spans.HOOKS:
        assert callable(getattr(importlib.import_module(mod), attr, None)), f"{mod}.{attr}"
    mod, cls, attr, _span = spans.CONTROL_HOOK
    owner = getattr(importlib.import_module(mod), cls)
    assert callable(getattr(owner, attr, None)), f"{mod}.{cls}.{attr}"


def test_all_lists_name_existing_attributes():
    modules = [hbmfg] + [importlib.import_module(f"hbmfg.{info.name}")
                         for info in pkgutil.iter_modules(hbmfg.__path__)
                         if info.name != "__main__"]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    # a dropped meta key or span should fail here, not only in a traced benchmark
    import sys

    import hbmfg.cli

    with open(os.path.join(os.path.dirname(SPANS), "..", "BENCHMARK.json")) as fh:
        want = {m["name"] for m in json.load(fh)["per_layer"]} - {"trace.overhead_pct"}
    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("hbmfg")}
    example = os.path.join(os.path.dirname(SPANS), "..", "configs", "example.json")
    tracer = _spans().Tracer()
    tracer.install(modules)
    try:
        for argv in (["solve", example, "--T", "2", "--dt", "0.05"],
                     ["stability", example],
                     ["simulate", example, "--N", "50", "--T", "0.5", "--reps", "2"]):
            assert hbmfg.cli.run(argv + ["--out", str(tmp_path / argv[0])]) == 0
    finally:
        tracer.restore()
    metrics = tracer.per_layer(1, 0, 0)
    assert set(metrics) == want
    # the Control hook counts every control built: the stay path, one best response a sweep
    assert metrics["model.control_checks"] == metrics["solver.sweeps"] + 1
    assert metrics["solver.sweeps"] >= 1 and metrics["stationary.complement_solves"] > 0
    # the integrators' spans stay the per-layer evidence for the solve path
    for name in ("kinetics.rk4_steps", "kinetics.forward_sweep_ms", "hjb.backward_sweep_ms"):
        assert metrics[name] > 0, name
