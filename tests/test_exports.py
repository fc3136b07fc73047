"""Every exported name and every benchmark hook resolves on the package.

perfbench/spans.py wraps package functions by (module, attribute); a name
removed from the package would only fail there when a traced run starts.
"""
from __future__ import annotations

import importlib
import importlib.util
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
