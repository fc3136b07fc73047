"""Command-line front end.

Subcommands: validate, stationary, stability, solve, simulate, sweep.  Every
run writes its artifacts into --out (or $MFG_OUT, or ./out), including a
manifest.json with content hashes, and prints a one-line JSON summary to
stdout.  Exit codes: 0 success, 1 usage/validation/assumption failures,
2 numerical failures (including a solve that does not converge).  A run
stopped by a usage error or a rejected input writes nothing; one stopped by
a numerical error writes error.json and the manifest.
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .hjb import HjbError
from .io import (
    ConfigError,
    check_fields,
    config_sha256,
    jsonable,
    read_config,
    read_config_doc,
    read_state_csv,
    write_aggregate_csv,
    write_json,
    write_manifest,
    write_state_csv,
    write_trajectory_csv,
)
from .kinetics import KineticsError
from .model import Occupation, Regime, validate
from .simulator import CountState, simulate
from .solver import (
    default_dt,
    default_horizon,
    rate_ordering_check,
    solve_mfg,
    turnpike_metrics,
)
from .stability import StabilityError, build_reduced_linearization, compare_d_block, spectrum
from .stationary import StationaryError, stationary_solution

__all__ = ["main", "run", "build_parser"]

_VALIDATION_ERRORS = (ConfigError, StationaryError, StabilityError, ValueError)
_NUMERICAL_ERRORS = (KineticsError, HjbError, FloatingPointError,
                     np.linalg.LinAlgError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here reserves 2 for
    # numerical failures, so usage problems are rerouted to exit 1.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only plain negative decimals as values; -1e-3 is one too
        self._negative_number_matcher = re.compile(r"^-\d*\.?\d+([eE][+-]?\d+)?$")

    def error(self, message):
        raise _UsageError(message)


def _exit_code(e: Exception) -> int:
    # LinAlgError is also a ValueError, so the numerical test comes first
    return 2 if isinstance(e, _NUMERICAL_ERRORS) else 1


def _emit(summary: dict) -> None:
    print(json.dumps(jsonable(summary), sort_keys=True, separators=(",", ":"), allow_nan=False))


def _outdir(out) -> str:
    out = out or os.environ.get("MFG_OUT") or "out"
    os.makedirs(out, exist_ok=True)
    return out


def _require_valid(cfg):
    violations = validate(cfg)
    if violations:
        raise ConfigError("config fails validation: " + "; ".join(violations))
    return cfg


def _initial_occupation(x0, cfg) -> np.ndarray:
    """The --x0 occupation CSV, or the uniform occupation without one."""
    if x0:
        return Occupation(read_state_csv(x0, cfg.n, cfg.m)).x
    return Occupation.uniform(cfg.n, cfg.m).x


def _run_validate(config: str, out: str):
    try:
        cfg = read_config(config)
        violations = validate(cfg)
    except ConfigError as e:
        violations = [str(e)]
    ok = not violations
    write_json(os.path.join(out, "validation.json"),
               {"ok": ok, "violations": violations})
    summary = {"cmd": "validate", "ok": ok, "violations": len(violations), "out": out}
    return (0 if ok else 1), summary


def _run_stationary(config: str, out: str, regime=None, delta=None):
    cfg = read_config(config)
    overrides = {k: v for k, v in (("regime", regime), ("delta", delta)) if v is not None}
    if overrides:  # the new config derives delta_int and delta_dis afresh
        cfg = dataclasses.replace(cfg, **overrides)
    sol = stationary_solution(_require_valid(cfg))
    write_json(os.path.join(out, "stationary.json"), {
        "b": sol.b_1based,
        "regime": cfg.regime.value,
        "delta": cfg.delta,
        "delta_int": cfg.delta_int,
        "delta_dis": cfg.delta_dis,
        "margin": sol.margin,
        "margin_leading": sol.margin_leading,
        "column_sums": sol.meta["column_sums"],
        "x0": sol.x0.x,
        "x1": sol.x1,
        "g0": sol.g0,
        "g1": sol.g1,
        "g2": sol.g2,
        "g": sol.g,
    })
    write_state_csv(os.path.join(out, "x_star.csv"), sol.x_corrected)
    summary = {"cmd": "stationary", "b": sol.b_1based, "margin": sol.margin,
               "margin_leading": sol.margin_leading, "out": out}
    return 0, summary


def _run_stability(config: str, out: str):
    cfg = _require_valid(read_config(config))
    L = build_reduced_linearization(cfg)
    rep = spectrum(L)
    cmp_ = compare_d_block(cfg)
    write_json(os.path.join(out, "stability.json"), {
        "size": int(L.shape[0]),
        "eigenvalues": [[float(v.real), float(v.imag)] for v in rep.eigenvalues],
        "zero_count": rep.zero_count,
        "negative_count": rep.negative_count,
        "positive_count": rep.positive_count,
        "geometric_multiplicity_zero": rep.geometric_multiplicity_zero,
        "tol_zero": rep.tol_zero,
        "d_block": {"max_abs_diff": cmp_["max_abs_diff"], "agree": cmp_["agree"]},
        "rate_ordering": rate_ordering_check(cfg),
    })
    summary = {"cmd": "stability", "zero": rep.zero_count,
               "negative": rep.negative_count, "positive": rep.positive_count,
               "out": out}
    return 0, summary


def _run_solve(config: str, out: str, T=None, dt=None, x0=None, gT=None, max_iter=50):
    cfg = _require_valid(read_config(config))
    horizon = float(T) if T is not None else default_horizon(cfg)
    step = float(dt) if dt is not None else default_dt(cfg)
    g_end = read_state_csv(gT, cfg.n, cfg.m) if gT else np.zeros((cfg.n, cfg.m))

    res = solve_mfg(_initial_occupation(x0, cfg), g_end, horizon, step, cfg, max_iter=max_iter)
    traj = res.trajectory
    write_trajectory_csv(os.path.join(out, "x.csv"), traj.times, traj.x, prefix="x")
    write_trajectory_csv(os.path.join(out, "g.csv"), traj.times, traj.g, prefix="g")
    # one change point per control piece, its switching cells as 1-based [level, from, to]
    stay = np.arange(cfg.m)
    write_json(os.path.join(out, "controls.json"), {"steps": traj.u.n_steps, "change_points": [
        {"t": float(traj.times[k]),
         "active": [[i + 1, a + 1, int(u[i, a]) + 1] for i, a in zip(*np.nonzero(u != stay))]}
        for k, u in zip(traj.u.starts.tolist(), traj.u.targets)]})

    turnpike = None
    try:
        tm = turnpike_metrics(res, cfg)
        turnpike = {"sup_middle": tm.sup_middle, "sup_middle_g": tm.sup_middle_g,
                    "plateau": tm.plateau, "switch_fraction": tm.switch_fraction}
    except StationaryError:
        pass
    write_json(os.path.join(out, "solve.json"), {
        "T": horizon,
        "dt": traj.meta["dt"],
        "iterations": res.iterations,
        "converged": res.converged,
        "oscillating": res.oscillating,
        "cone_worst": res.meta["cone_worst"],
        "switch_fraction": res.meta["switch_fraction"],
        "flipped_steps": res.meta["flipped_steps"],
        "drift_max": traj.meta["drift_max"],
        "projections": traj.meta["projections"],
        "violations": res.meta["violations"],
        "violations_head": [
            [t, i + 1, a + 1, b + 1, gain]
            for (t, i, a, b, gain) in res.cone_violations[:20]
        ],
        "turnpike": turnpike,
    })
    summary = {"cmd": "solve", "converged": res.converged,
               "iterations": res.iterations,
               "cone_worst": res.meta["cone_worst"], "out": out}
    return (0 if res.converged else 2), summary


def _run_simulate(config: str, out: str, N, T, reps=1, seed=0, samples=50,
                  per_rep=False, x0=None):
    cfg = _require_valid(read_config(config))
    if N < 1 or reps < 1:
        raise ValueError("need N >= 1 and reps >= 1")
    s0 = CountState.from_occupation(_initial_occupation(x0, cfg), int(N))
    # one replication takes the scalar event loop, which runs faster than lockstep
    seeds = seed if reps == 1 else [seed + r for r in range(reps)]
    paths = simulate(s0, None, float(T), seeds, cfg, samples=samples)
    if reps == 1:
        paths = [paths]
    xs = np.stack([p.x for p in paths])
    mean = xs.mean(axis=0)
    if reps > 1:
        stderr = xs.std(axis=0, ddof=1) / np.sqrt(reps)
    else:
        stderr = np.zeros_like(mean)
    write_aggregate_csv(os.path.join(out, "aggregate.csv"),
                        paths[0].times, mean, stderr)
    if per_rep:
        for r, p in enumerate(paths):
            write_trajectory_csv(os.path.join(out, f"rep_{r:03d}.csv"),
                                 p.times, p.x, prefix="x")
    events_per_rep = [p.events for p in paths]
    events = sum(events_per_rep)
    write_json(os.path.join(out, "simulate.json"), {
        "N": int(N), "T": float(T), "replications": int(reps),
        "samples": int(samples), "seed": int(seed), "events": events,
        "events_per_rep": events_per_rep, "rng": paths[0].meta["rng"],
    })
    summary = {"cmd": "simulate", "N": int(N), "replications": int(reps),
               "events": events, "out": out}
    return 0, summary


def _parse_sweep_value(token: str):
    def finite(number: str, parse=float):
        value = parse(number)
        if not abs(value) <= sys.float_info.max:  # nan, inf, or an int beyond float64
            raise ConfigError(f"sweep value {token} holds the number {number}, "
                              "non-finite in float64")
        return value

    try:
        return json.loads(token, parse_float=finite, parse_constant=finite,
                          parse_int=lambda number: finite(number, int))
    except json.JSONDecodeError:
        return token


def _set_config_path(doc, tokens, value, label: str):
    cur = doc
    for t in tokens[:-1]:
        if isinstance(cur, list):
            try:
                cur = cur[int(t)]
            except (ValueError, IndexError):
                raise ConfigError(f"sweep parameter path '{label}': bad index '{t}'")
        elif isinstance(cur, dict) and t in cur:
            cur = cur[t]
        else:
            raise ConfigError(f"sweep parameter path '{label}' not found at '{t}'")
    last = tokens[-1]
    if isinstance(cur, list):
        try:
            cur[int(last)] = value
        except (ValueError, IndexError):
            raise ConfigError(f"sweep parameter path '{label}': bad index '{last}'")
    elif isinstance(cur, dict):
        cur[last] = value
    else:
        raise ConfigError(f"sweep parameter path '{label}' does not address a field")


_SWEEP_OPS = {
    "validate": _run_validate,
    "stationary": _run_stationary,
    "stability": _run_stability,
}


def _run_sweep(config: str, out: str, param: str, values: list[str], op: str):
    base = read_config_doc(config)
    tokens = param.split(".")
    vals = [_parse_sweep_value(v) for v in values]
    if not vals:
        raise ValueError("sweep needs at least one value")
    docs = [copy.deepcopy(base) for _ in vals]
    for doc, val in zip(docs, vals):  # every value's fields are checked before any run
        _set_config_path(doc, tokens, val, param)
        check_fields(doc)
    results = []
    worst = 0
    for k, (val, doc) in enumerate(zip(vals, docs)):
        sub = os.path.join(out, f"val_{k}")
        os.makedirs(sub, exist_ok=True)
        sub_cfg = os.path.join(sub, "config.json")
        with open(sub_cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        try:
            code, summary = _SWEEP_OPS[op](sub_cfg, sub)
        except _VALIDATION_ERRORS + _NUMERICAL_ERRORS as e:
            code, summary = _exit_code(e), {"error": str(e)}
        results.append({"value": val, "dir": f"val_{k}",
                        "status": code, "summary": summary})
        worst = max(worst, code)
    write_json(os.path.join(out, "sweep.json"),
               {"param": param, "op": op, "values": vals, "results": results})
    summary = {"cmd": "sweep", "runs": len(vals),
               "failed": sum(1 for r in results if r["status"] != 0), "out": out}
    return worst, summary


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="hbmfg", description=__doc__)
    p.add_argument("--version", action="version", version=f"hbmfg {__version__}")
    subs = p.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    def command(name, handler, about):
        sp = subs.add_parser(name, help=about)
        sp.set_defaults(handler=handler)
        sp.add_argument("config", help="path to a JSON config file")
        sp.add_argument("--out", default=None,
                        help="output directory (default $MFG_OUT or ./out)")
        return sp

    command("validate", _run_validate, "check a config against the invariants")
    sp = command("stationary", _run_stationary, "stationary expansion terms")
    sp.add_argument("--regime", choices=[r.value for r in Regime], default=None)
    sp.add_argument("--delta", type=float, default=None)

    command("stability", _run_stability, "reduced linearization spectrum")
    sp = command("solve", _run_solve, "coupled forward-backward solve")
    sp.add_argument("--T", type=float, default=None, help="horizon (default 50/min rate)")
    sp.add_argument("--dt", type=float, default=None, help="step (default from rates)")
    sp.add_argument("--x0", default=None, help="initial occupation CSV (one row)")
    sp.add_argument("--gT", default=None, help="terminal payoff CSV (one row)")
    sp.add_argument("--max-iter", type=int, default=50)

    sp = command("simulate", _run_simulate, "finite-population event simulation")
    sp.add_argument("--N", type=int, required=True, help="population size")
    sp.add_argument("--T", type=float, required=True, help="horizon")
    sp.add_argument("--reps", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("--per-rep", action="store_true", dest="per_rep",
                    help="also write one CSV per replication")
    sp.add_argument("--x0", default=None, help="initial occupation CSV (one row)")

    sp = command("sweep", _run_sweep, "rerun an operation across parameter values")
    sp.add_argument("--param", required=True,
                    help="dotted path into the config (e.g. scales.delta)")
    sp.add_argument("--values", required=True, nargs="+",
                    help="one or more replacement values, each parsed as JSON")
    sp.add_argument("--op", choices=sorted(_SWEEP_OPS), default="stationary")
    return p


def run(argv=None) -> int:
    """Parse argv and execute; returns the exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"hbmfg: error: {e}", file=sys.stderr)
        return 1

    opts = vars(args)
    cmd, handler = opts.pop("cmd"), opts.pop("handler")
    out = opts["out"] = _outdir(opts["out"])
    try:
        code, summary = handler(**opts)
    except _VALIDATION_ERRORS + _NUMERICAL_ERRORS as e:
        code = _exit_code(e)
        print(f"hbmfg {cmd}: {'numerical failure: ' if code == 2 else ''}{e}",
              file=sys.stderr)
        summary = {"cmd": cmd, "ok": False, "error": str(e)}
        if code == 1:  # a rejected input leaves no artifacts behind
            _emit(summary)
            return 1
        write_json(os.path.join(out, "error.json"), {"cmd": cmd, "error": str(e)})

    try:
        cfg_hash = config_sha256(opts["config"])
    except OSError:
        cfg_hash = None
    write_manifest(out, ["hbmfg"] + argv, cfg_hash, __version__)
    _emit(summary)
    return code


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
