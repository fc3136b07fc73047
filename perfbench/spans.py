"""Spans around hbmfg's public functions, installed from outside the package.

Each wrapper replaces a function at the module attribute its caller looks
up (for example `hbmfg.solver.integrate_forward`, which `solve_mfg` calls),
so the package's source is untouched.  A span records its name, start, end
and the span open when it began.  Spans are kept in flat arrays in memory
and saved when the run ends; per-layer figures are computed from them.
"""
from __future__ import annotations

import math
import os
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name).  The span name is the function's home
# module and name; the attribute is where its caller finds it.
HOOKS = [
    ("hbmfg.cli", "run", "cli.run"),
    ("hbmfg.cli", "read_config", "io.read_config"),
    ("hbmfg.cli", "write_json", "io.write"),
    ("hbmfg.cli", "write_trajectory_csv", "io.write"),
    ("hbmfg.cli", "write_state_csv", "io.write"),
    ("hbmfg.cli", "write_aggregate_csv", "io.write"),
    ("hbmfg.cli", "write_manifest", "io.write"),
    ("hbmfg.cli", "solve_mfg", "solver.solve_mfg"),
    ("hbmfg.cli", "turnpike_metrics", "solver.turnpike_metrics"),
    ("hbmfg.cli", "simulate", "simulator.simulate"),
    ("hbmfg.cli", "stationary_solution", "stationary.stationary_solution"),
    ("hbmfg.cli", "build_reduced_linearization", "stability.build_reduced_linearization"),
    ("hbmfg.cli", "spectrum", "stability.spectrum"),
    ("hbmfg.cli", "compare_d_block", "stability.compare_d_block"),
    ("hbmfg.solver", "integrate_forward", "kinetics.integrate_forward"),
    ("hbmfg.solver", "integrate_backward", "hjb.integrate_backward"),
    ("hbmfg.solver", "switch_gains", "hjb.switch_gains"),
    ("hbmfg.solver", "stationary_solution", "stationary.stationary_solution"),
    ("hbmfg.kinetics", "kinetic_rhs", "kinetics.kinetic_rhs"),
    ("hbmfg.kinetics", "rk4_step", "kinetics.rk4_step"),
    ("hbmfg.hjb", "rk4_step", "kinetics.rk4_step"),
    ("hbmfg.hjb", "hjb_rhs", "hjb.hjb_rhs"),
    ("hbmfg.hjb", "optimal_control", "hjb.optimal_control"),
    ("hbmfg.stationary", "solve_on_complement", "stationary.solve_on_complement"),
]
# Every Control construction runs this validation; it is wrapped on the class.
CONTROL_HOOK = ("hbmfg.model", "Control", "__post_init__", "model.Control")


class Tracer:
    """Records spans while installed; restore() puts the originals back."""

    def __init__(self):
        self.names: list = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.solves: list = []       # (iterations, damping, final damping, dx, u bytes)
        self.bytes_written = 0
        self._stack = [-1]
        self._saved: list = []

    def install(self, modules: dict):
        for mod, attr, span in HOOKS:
            self._wrap(modules[mod], attr, span)
        mod, cls, attr, span = CONTROL_HOOK
        self._wrap(getattr(modules[mod], cls), attr, span)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, owner, attr, span):
        fn = getattr(owner, attr)
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        after = {"solver.solve_mfg": self._after_solve, "io.write": self._after_write}.get(span)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def _after_solve(self, res, args, kwargs):
        self.solves.append((res.iterations, kwargs.get("damping", 0.5),
                            res.meta["damping_final"], res.meta["dx_final"],
                            res.trajectory.u.nbytes))

    def _after_write(self, result, args, kwargs):
        path = result if isinstance(result, str) else args[0]
        self.bytes_written += os.path.getsize(path)

    def save(self, path: str):
        np.savez_compressed(path, names=np.array(self.names), name=np.asarray(self.name),
                            parent=np.asarray(self.parent), start=np.asarray(self.start),
                            end=np.asarray(self.end))

    def per_layer(self, rounds: int, events: int, channels: int) -> dict:
        """Per-layer figures of `rounds` equal traced rounds, by metric name.

        Counts are per round.  events (over all rounds) and channels come
        from outside the spans: the simulate summaries and the simulator's
        channel table.
        """
        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = parent >= 0
        self_time = dur - np.bincount(parent[child], dur[child], minlength=dur.size)
        ids = {s: k for k, s in enumerate(self.names)}

        def sel(span):
            return name == ids[span]

        def count(span):
            return int(sel(span).sum()) // rounds

        def mean(values, mask, scale):
            n = int(mask.sum())
            return float(values[mask].sum()) * scale / n if n else 0.0

        solve = sel("solver.solve_mfg")
        solves = max(1, len(self.solves))
        under_solve = child & np.isin(parent, np.flatnonzero(solve))
        sim = sel("simulator.simulate")
        writes = sel("io.write")

        residuals = [0.0 if it == 1 else dx * (1.0 - th) / th
                     for it, _, th, dx, _ in self.solves]
        return {
            "solver.sweeps": sum(s[0] for s in self.solves) / solves,
            "solver.damping_halvings": sum(round(math.log2(d0 / th))
                                           for _, d0, th, _, _ in self.solves) / solves,
            "solver.fixed_point_residual": max(residuals, default=0.0),
            "solver.self_ms": mean(self_time, solve, 1e3),
            "solver.cone_scan_ms": float(dur[under_solve & sel("hjb.switch_gains")].sum())
            * 1e3 / solves,
            "solver.u_path_bytes": max((s[4] for s in self.solves), default=0),
            "kinetics.forward_sweep_ms": mean(dur, sel("kinetics.integrate_forward"), 1e3),
            "kinetics.rhs_calls": count("kinetics.kinetic_rhs"),
            "kinetics.rhs_us": mean(self_time, sel("kinetics.kinetic_rhs"), 1e6),
            "kinetics.rk4_steps": count("kinetics.rk4_step"),
            "hjb.backward_sweep_ms": mean(dur, sel("hjb.integrate_backward"), 1e3),
            "hjb.rhs_calls": count("hjb.hjb_rhs"),
            "hjb.rhs_us": mean(self_time, sel("hjb.hjb_rhs"), 1e6),
            "hjb.best_response_calls": count("hjb.optimal_control"),
            "hjb.best_response_us": mean(self_time, sel("hjb.optimal_control"), 1e6),
            "model.control_checks": count("model.Control"),
            "model.control_check_us": mean(dur, sel("model.Control"), 1e6),
            "simulator.events": events // rounds,
            "simulator.channels": channels,
            "simulator.us_per_event": float(dur[sim].sum()) * 1e6 / max(1, events),
            "simulator.replication_ms": mean(dur, sim, 1e3),
            "stationary.solution_ms": mean(dur, sel("stationary.stationary_solution"), 1e3),
            "stationary.complement_solves": count("stationary.solve_on_complement"),
            "stationary.complement_solve_us": mean(dur, sel("stationary.solve_on_complement"),
                                                   1e6),
            "stability.linearization_us": mean(
                dur, sel("stability.build_reduced_linearization"), 1e6),
            "stability.spectrum_us": mean(dur, sel("stability.spectrum"), 1e6),
            "stability.d_block_us": mean(dur, sel("stability.compare_d_block"), 1e6),
            "io.read_config_ms": mean(dur, sel("io.read_config"), 1e3),
            "io.write_ms": float(dur[writes].sum()) * 1e3 / max(1, int(sel("cli.run").sum())),
            "io.bytes_written": self.bytes_written // rounds,
            "cli.self_ms": mean(self_time, sel("cli.run"), 1e3),
            "trace.spans": int(name.size) // rounds,
        }
