"""Benchmark of hbmfg through its public command line, run in-process.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths resolve from this file).
One caller calls `hbmfg.cli.run` in a closed loop, repeating whole rounds
of the workload's operations for about S seconds, with probe operations
interleaved so that every end-to-end metric is measured on every workload.
Operation times are scaled by a reference task sampled on a timer while
they run (Sampler).  After timing, every operation's artifacts are checked
against the oracle in oracle.py.  With --trace 1, untraced and traced
rounds alternate in pairs, and the per-layer figures come from the spans
(spans.py).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from array import array
from collections import defaultdict
from dataclasses import dataclass

# One BLAS thread, fixed before numpy is first imported here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402

SETUP_REPEATS = 5

# The shared machine slows each core by up to 2x, in stretches from well
# under a second to minutes.  While operations are timed, an interval timer
# interrupts the caller every SAMPLE_PERIOD seconds to time a fixed
# reference task on the same thread (Sampler).  An operation's scaled time
# counts each stretch between two samples at the speed those samples show,
# and leaves the samples' own time out.  REF_SECONDS is the reference's time
# on the unloaded machine, so scaled times read as seconds there.
REF_SECONDS = 0.0015
SAMPLE_PERIOD = 0.025

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "sim_events_per_s": "events/s",
    "analysis_ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "solver.sweeps": "count",
    "solver.damping_halvings": "count",
    "solver.fixed_point_residual": "1",
    "solver.self_ms": "ms",
    "solver.cone_scan_ms": "ms",
    "solver.u_path_bytes": "B",
    "kinetics.forward_sweep_ms": "ms",
    "kinetics.rhs_calls": "count",
    "kinetics.rhs_us": "us",
    "kinetics.rk4_steps": "count",
    "hjb.backward_sweep_ms": "ms",
    "hjb.rhs_calls": "count",
    "hjb.rhs_us": "us",
    "hjb.best_response_calls": "count",
    "hjb.best_response_us": "us",
    "model.control_checks": "count",
    "model.control_check_us": "us",
    "simulator.events": "count",
    "simulator.channels": "count",
    "simulator.us_per_event": "us",
    "simulator.replication_ms": "ms",
    "stationary.solution_ms": "ms",
    "stationary.complement_solves": "count",
    "stationary.complement_solve_us": "us",
    "stability.linearization_us": "us",
    "stability.spectrum_us": "us",
    "stability.d_block_us": "us",
    "io.read_config_ms": "ms",
    "io.write_ms": "ms",
    "io.bytes_written": "B",
    "cli.self_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


class MissingProgram(RuntimeError):
    pass


# A config-sized document for the reference's object work.
_REF_DOC = {
    "rates": {name: [[0.125 * i + 0.5 * j for i in range(3)] for j in range(3)]
              for name in ("q_up", "q_down", "q_up_evo", "q_down_evo")},
    "economics": {"w": [[1.0, 0.5, 0.25]] * 3, "fee_H": [0.0, 0.5, 1.0]},
    "scales": {"lambda": 1.0, "delta": 0.05, "regime": "id1"},
}


def reference_seconds() -> float:
    """Time of a fixed mix of small numpy calls with interpreter arithmetic,
    like the solver's stages, and of pure-Python object work (deepcopy and
    indented json), like the sweeps' artifacts and the simulator."""
    t0 = time.perf_counter()
    x = np.full(9, 1.0 / 9.0)
    acc = 0.0
    for _ in range(300):
        acc += float((x * 0.5 + 0.25).sum()) + sum(j * 0.5 for j in range(16))
    for _ in range(5):
        json.dumps(copy.deepcopy(_REF_DOC), indent=1)
    return time.perf_counter() - t0


class Sampler:
    """Times reference_seconds() on every SIGALRM between start() and stop().

    Python runs the handler on the main thread between bytecodes, so each
    sample lies wholly inside or wholly outside any interval the caller
    timed.
    """

    def __init__(self):
        self.start_t = array("d")   # when each sample began
        self.end_t = array("d")     # when it returned to the caller
        self.ref = array("d")       # the reference's time in it

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        self.ref.append(reference_seconds())
        self.start_t.append(t0)
        self.end_t.append(time.perf_counter())

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self) -> float:
        return sum(self.end_t) - sum(self.start_t)

    def scaled(self, a: float, b: float) -> float:
        """Scaled time of the caller's interval [a, b], once stopped.

        The interval minus the samples in it falls into stretches, each
        bounded by a sample on either side (the nearest one at the ends of
        the run); a stretch counts at the mean speed of those two.
        """
        start, end, ref = (np.frombuffer(v) for v in (self.start_t, self.end_t, self.ref))
        n = len(ref)
        i, j = np.searchsorted(start, [a, b])
        stretch = np.append(start[i:j], b) - np.insert(end[i:j], 0, a)
        k = np.arange(i, j + 1)
        speed = 0.5 / ref[np.clip(k - 1, 0, n - 1)] + 0.5 / ref[np.clip(k, 0, n - 1)]
        return REF_SECONDS * float(stretch @ speed)


def import_hbmfg():
    """Import the package from this checkout's src/, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hbmfg", "__init__.py")):
        raise MissingProgram(f"no hbmfg package under {SRC}")
    if not os.path.isfile(W.EXAMPLE):
        raise MissingProgram(f"no {W.EXAMPLE}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import hbmfg
    import hbmfg.cli
    if os.path.dirname(os.path.abspath(hbmfg.__file__)) != os.path.join(SRC, "hbmfg"):
        raise MissingProgram(f"hbmfg imported from {hbmfg.__file__}, not from {SRC}")
    return {name: sys.modules[name] for name in list(sys.modules) if name.startswith("hbmfg")}


def prepare(workload, seed: int, cfg_dir: str):
    """Generate the workload's inputs; return (round ops, probe ops)."""
    return workload.round_ops(seed, cfg_dir), W.probe_ops(workload, seed, cfg_dir)


def setup_only(workload, seed: int, cfg_dir: str) -> int:
    """What a fresh process does before its first operation can start.

    Prints the time its reference samples took and its mean speed (the
    mean of REF_SECONDS over each sample's time).
    """
    sampler = Sampler()
    sampler.start()
    try:
        modules = import_hbmfg()
        ops, probes = prepare(workload, seed, cfg_dir)
        for path in sorted({op.info["config"] for op in ops + probes}):
            modules["hbmfg.io"].read_config(path)
    finally:
        sampler.stop()
    if not sampler.ref:
        sampler.ref.append(reference_seconds())
    print(sampler.spent(), statistics.fmean(REF_SECONDS / r for r in sampler.ref))
    return 0


def time_setup(workload, seed: int, out: str) -> list:
    """Scaled wall time of fresh interpreters doing setup_only, several times:
    the wall time without the child's reference samples, times its speed."""
    times = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
               "--workload", workload.name, "--seed", str(seed), "--seconds", "1",
               "--cfg-dir", os.path.join(out, f"setup_{k}")]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        # A timeout on communicate() polls every 50 ms, which would quantize
        # the times; a timer kills a hung child instead.
        guard = threading.Timer(120.0, proc.kill)
        guard.start()
        try:
            printed = proc.communicate()[0]
        finally:
            guard.cancel()
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run exited with {proc.returncode}")
        spent, speed = (float(v) for v in printed.split()[-2:])
        times.append((seconds - spent) * speed)
    return times


@dataclass
class Record:
    op: W.Op
    tag: str
    dir: str
    code: int
    start: float
    seconds: float      # wall time, reference samples included
    summary: dict
    digest: dict
    scaled: float = math.nan


def _digest(d: str) -> dict:
    """sha256 of every artifact except the manifest, which records the command.

    Artifacts that name their own output directory (sweep.json does) are
    hashed with that path replaced by a placeholder.
    """
    out = {}
    for root, _dirs, names in os.walk(d):
        for name in names:
            if name != "manifest.json":
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    data = fh.read().replace(d.encode(), b"<out>")
                out[os.path.relpath(path, d)] = hashlib.sha256(data).hexdigest()
    return out


class Runner:
    """Runs operations through `hbmfg.cli.run` and keeps their records.

    The first run of each operation keeps its own output directory for the
    checks.  Repeats overwrite one directory per operation, so a run does
    not pile up files; each is hashed right after it ends, outside its time.
    """

    def __init__(self, cli, out: str):
        self.cli = cli
        self.out = out
        self.records: list = []
        self._seen: set = set()

    def run(self, op: W.Op, tag: str) -> Record:
        where = "repeat" if op.label in self._seen else "first"
        self._seen.add(op.label)
        d = os.path.join(self.out, where, op.label)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.run(list(op.argv) + ["--out", d])
        except Exception:  # a crash counts as a failed operation; the run goes on
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - t0
        lines = buf.getvalue().strip().splitlines()
        summary = json.loads(lines[-1]) if lines else {}
        rec = Record(op, tag, d, code, t0, seconds, summary, _digest(d) if code == 0 else {})
        self.records.append(rec)
        return rec

    def scale(self, sampler: Sampler):
        for rec in self.records:
            rec.scaled = sampler.scaled(rec.start, rec.start + rec.seconds)

    def round(self, ops: list, tag: str) -> float:
        t0 = time.perf_counter()
        for op in ops:
            self.run(op, tag)
        return time.perf_counter() - t0


def check_records(records: list) -> int:
    """Check every record; return how many failed.

    The first record of each operation is checked against the oracle; a
    repeat must reproduce the first one's artifacts byte for byte.
    """
    import checks

    first = {}
    for rec in records:
        first.setdefault(rec.op.label, rec)
    ctx = {label: (rec.op, rec.dir) for label, rec in first.items()}
    verdict = {}
    for label, rec in first.items():
        if rec.code != 0:
            verdict[label] = [f"exit code {rec.code}"]
            continue
        try:
            verdict[label] = checks.CHECKS[rec.op.check](rec.op, rec.dir, ctx)
        except Exception as e:  # unreadable or malformed artifacts
            verdict[label] = [f"check raised {type(e).__name__}: {e}"]
    failed = 0
    for rec in records:
        problems = verdict[rec.op.label]
        if not problems and rec is not first[rec.op.label]:
            if rec.code != 0:
                problems = [f"exit code {rec.code}"]
            elif rec.digest != first[rec.op.label].digest:
                problems = [f"artifacts differ from the first {rec.op.label}"]
        if problems:
            failed += 1
            print(f"FAILED {rec.tag}/{rec.op.label}: " + "; ".join(problems), file=sys.stderr)
    return failed


def _typical(records: list, kind: str) -> dict:
    """Median scaled time of each `kind` operation, by label."""
    times = defaultdict(list)
    for rec in records:
        if rec.op.kind == kind:
            times[rec.op.label].append(rec.scaled)
    return {label: statistics.median(v) for label, v in times.items()}


def _rate(records: list, kind: str, work) -> float:
    """Work of one pass over the `kind` operations per second of their typical times."""
    first = {}
    for rec in records:
        if rec.op.kind == kind:
            first.setdefault(rec.op.label, work(rec.summary))
    return sum(first.values()) / sum(_typical(records, kind).values())


def end_to_end(records: list, setup: list, rss_kb: int) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "solve_s": statistics.median(_typical(records, "solve").values()),
        "sim_events_per_s": _rate(records, "simulate", lambda s: s.get("events", 0)),
        "analysis_ops_per_s": _rate(
            records, "sweep", lambda s: s.get("runs", 0) - s.get("failed", 0)),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def channel_count(modules: dict, records: list) -> int:
    """Channels of the first simulation: moves with a positive rate at its start."""
    op = next(r.op for r in records if r.op.kind == "simulate")
    sim, io_ = modules["hbmfg.simulator"], modules["hbmfg.io"]
    cfg = io_.read_config(op.info["config"])
    x0 = modules["hbmfg.model"].Occupation.uniform(cfg.n, cfg.m).x
    return len(sim.enumerate_transitions(sim.CountState.from_occupation(x0, op.info["N"]),
                                         None, cfg))


def timed_run(runner: Runner, workload, ops: list, probes: list, seconds: float):
    """Whole rounds until the next would end past `seconds`.  Probe sets run
    before the first round (half of the minimum), after every
    probe_every-th round, and afterwards until there are enough, so that
    they sample the machine before, during and after a single long round."""
    rounds = sets = 0
    while sets < W.MIN_PROBE_SETS // 2:
        runner.round(probes, f"p{sets:03d}")
        sets += 1
    last = 0.0
    t_start = time.perf_counter()
    while rounds < workload.min_rounds or time.perf_counter() - t_start + last <= seconds:
        last = runner.round(ops, f"r{rounds:03d}")
        if rounds % workload.probe_every == workload.probe_every - 1:
            last += runner.round(probes, f"p{sets:03d}")
            sets += 1
        rounds += 1
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while sets < W.MIN_PROBE_SETS:
        runner.round(probes, f"p{sets:03d}")
        sets += 1
    # A last sample bounds the last operation's end.
    time.sleep(2 * SAMPLE_PERIOD)
    return rss_kb


def traced_run(runner: Runner, modules: dict, ops: list, probes: list, seconds: float,
               out: str) -> dict:
    """Untraced and traced rounds in pairs, each pair in the other order,
    until the time is up; at least one pair."""
    import spans

    tracer = spans.Tracer()
    times = {"u": [], "t": []}
    pairs, last = 0, 0.0
    t_start = time.perf_counter()
    while pairs == 0 or time.perf_counter() - t_start + last <= seconds:
        last = 0.0
        for mode in ("ut" if pairs % 2 == 0 else "tu"):
            if mode == "t":
                tracer.install(modules)
            try:
                times[mode].append(runner.round(ops + probes, f"{mode}{pairs:03d}"))
            finally:
                tracer.restore()
            last += times[mode][-1]
        pairs += 1
    tracer.save(os.path.join(out, "spans.npz"))
    events = sum(r.summary.get("events", 0) for r in runner.records
                 if r.op.kind == "simulate" and r.tag.startswith("t"))
    metrics = tracer.per_layer(pairs, events, channel_count(modules, runner.records))
    u, t = (statistics.median(times[m]) for m in "ut")
    metrics["trace.overhead_pct"] = 100.0 * (t - u) / u
    return metrics


def run_workload(workload, seed: int, seconds: float, traced: bool) -> dict:
    modules = import_hbmfg()
    out = os.path.join(OUT, workload.name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    setup = time_setup(workload, seed, out)
    ops, probes = prepare(workload, seed, os.path.join(out, "configs"))
    runner = Runner(modules["hbmfg.cli"], out)
    if traced:
        metrics = traced_run(runner, modules, ops, probes, seconds, out)
        units = PER_LAYER
    else:
        sampler = Sampler()
        sampler.start()
        try:
            rss_kb = timed_run(runner, workload, ops, probes, seconds)
        finally:
            sampler.stop()
        runner.scale(sampler)
        metrics, units = end_to_end(runner.records, setup, rss_kb), END_TO_END

    records = runner.records
    failed = check_records(records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed, "seconds": seconds,
                   "trace": int(traced), "setup_runs_s": setup, **result,
                   "operations": [[r.tag, r.op.label, r.code, r.seconds, r.scaled]
                                  for r in records]},
                  fh, indent=1)
    return result


def report(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
    for metric, mv in result["metrics"].items():
        print(f"  {metric:32s} {mv['value']:.6g} {mv['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--cfg-dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    os.chdir(ROOT)
    try:
        if args.setup_only:
            return setup_only(W.WORKLOADS[args.workload], args.seed, args.cfg_dir)
        names = sorted(W.WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            results[name] = run_workload(W.WORKLOADS[name], args.seed, args.seconds,
                                         bool(args.trace))
            report(name, results[name])
    except MissingProgram as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": mv for name, r in results.items()
                        for metric, mv in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
