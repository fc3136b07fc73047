"""Command-line front end.

Subcommands: validate, stationary, stability, solve, simulate, sweep.  Every
run writes its artifacts into --out (or $MFG_OUT, or ./out), including a
manifest.json with content hashes, and prints a one-line JSON summary to
stdout.  Exit codes: 0 success, 1 usage/validation/assumption failures,
2 numerical failures (including a solve that does not converge, or whose
payoff passes its a-priori bound).  A run stopped by a usage error or a
rejected input writes nothing; one stopped by a numerical error writes
error.json and the manifest.  A sweep hands each run its config document in
memory; the run's config.json records it, unread.  What the documents share
is encoded, read and validated once per sweep.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
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
    parse_int,
    read_config,
    read_config_doc,
    read_state_csv,
    write_aggregate_csv,
    write_config_doc,
    write_json,
    write_manifest,
    write_state_csv,
    write_trajectory_csv,
)
from .kinetics import KineticsError
from .model import Occupation, Regime, validate
from .simulator import CountState, replication_summary, simulate
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


def _require_valid(cfg, memo=None):
    violations = validate(cfg, memo)
    if violations:
        raise ConfigError("config fails validation: " + "; ".join(violations))
    return cfg


def _initial_occupation(x0, cfg) -> np.ndarray:
    """The --x0 occupation CSV, or the uniform occupation without one."""
    if x0:
        return Occupation(read_state_csv(x0, cfg.n, cfg.m)).x
    return Occupation.uniform(cfg.n, cfg.m).x


def _run_validate(config, out: str, written: dict, memo=None):
    try:
        cfg = read_config(config, memo)
        violations = validate(cfg, memo)
    except ConfigError as e:
        violations = [str(e)]
    ok = not violations
    write_json(os.path.join(out, "validation.json"),
               {"ok": ok, "violations": violations}, written)
    summary = {"cmd": "validate", "ok": ok, "violations": len(violations), "out": out}
    return (0 if ok else 1), summary


def _run_stationary(config, out: str, written: dict, regime=None, delta=None, memo=None):
    cfg = read_config(config, memo)
    overrides = {k: v for k, v in (("regime", regime), ("delta", delta)) if v is not None}
    if overrides:  # the new config derives delta_int and delta_dis afresh
        cfg = dataclasses.replace(cfg, **overrides)
    sol = stationary_solution(_require_valid(cfg, memo))
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
    }, written)
    write_state_csv(os.path.join(out, "x_star.csv"), sol.x_corrected, written=written)
    summary = {"cmd": "stationary", "b": sol.b_1based, "margin": sol.margin,
               "margin_leading": sol.margin_leading, "out": out}
    return 0, summary


def _run_stability(config, out: str, written: dict, memo=None):
    cfg = _require_valid(read_config(config, memo), memo)
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
    }, written)
    summary = {"cmd": "stability", "zero": rep.zero_count,
               "negative": rep.negative_count, "positive": rep.positive_count,
               "out": out}
    return 0, summary


# A solve whose payoff path passes this multiple of _payoff_bound has blown up
_PAYOFF_SLACK = 2.0


def _payoff_bound(cfg, g_end: np.ndarray) -> float:
    """A bound on |g| over an exact solve: max |gT| + (max |w| + F) / delta_dis,
    F the largest expected fine flow per capita with every partner cell at mass
    1, which no occupation exceeds.  Staying is always feasible and no fee or
    fine is negative, so a payoff is worth at most the best reward flow and at
    least the worst reward less the largest fine flow, each discounted."""
    mv = cfg.moves
    fines = ((mv.rate + mv.evo.sum(axis=-1)) * mv.fine[:, :, None]).sum(axis=0)
    return float(np.abs(g_end).max() + (np.abs(cfg.w).max() + fines.max()) / cfg.delta_dis)


def _run_solve(config: str, out: str, written: dict, T=None, dt=None, x0=None, gT=None,
               max_iter=50):
    cfg = _require_valid(read_config(config))
    horizon = float(T) if T is not None else default_horizon(cfg)
    step = float(dt) if dt is not None else default_dt(cfg)
    g_end = read_state_csv(gT, cfg.n, cfg.m) if gT else np.zeros((cfg.n, cfg.m))

    res = solve_mfg(_initial_occupation(x0, cfg), g_end, horizon, step, cfg, max_iter=max_iter)
    traj = res.trajectory
    g_max, bound = max(traj.g.max(), -traj.g.min()), _payoff_bound(cfg, g_end)
    if g_max > _PAYOFF_SLACK * bound:
        raise HjbError(f"payoff path reached max |g| = {g_max:.6g}, past {_PAYOFF_SLACK:g} x "
                       f"its a-priori bound {bound:.6g}: the payoff pass is unstable at "
                       f"--dt {step:g}; take a smaller --dt")
    write_trajectory_csv(os.path.join(out, "x.csv"), traj.times, traj.x, "x", written)
    write_trajectory_csv(os.path.join(out, "g.csv"), traj.times, traj.g, "g", written)
    # one change point per control piece, its switching cells as 1-based [level, from, to]
    stay = np.arange(cfg.m)
    write_json(os.path.join(out, "controls.json"), {"steps": traj.u.n_steps, "change_points": [
        {"t": float(traj.times[k]),
         "active": [[i + 1, a + 1, int(u[i, a]) + 1] for i, a in zip(*np.nonzero(u != stay))]}
        for k, u in zip(traj.u.starts.tolist(), traj.u.targets)]}, written)

    turnpike = None
    try:
        tm = turnpike_metrics(res, cfg)
        turnpike = {"sup_middle": tm.sup_middle, "sup_middle_g": tm.sup_middle_g,
                    "plateau": tm.plateau}
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
        "turnpike": turnpike,
    }, written)
    summary = {"cmd": "solve", "converged": res.converged,
               "iterations": res.iterations,
               "cone_worst": res.meta["cone_worst"], "out": out}
    return (0 if res.converged else 2), summary


def _run_simulate(config: str, out: str, written: dict, N, T, reps=1, seed=0, samples=50,
                  per_rep=False, x0=None):
    """reps replications in one simulate call, seeds seed, seed + 1, ...; aggregate.csv
    holds replication_summary's means and standard errors, one CSV each with per_rep."""
    cfg = _require_valid(read_config(config))
    if N < 1 or reps < 1:
        raise ValueError("need N >= 1 and reps >= 1")
    s0 = CountState.from_occupation(_initial_occupation(x0, cfg), int(N))
    paths = simulate(s0, None, float(T), range(seed, seed + reps), cfg, samples=samples)
    mean, stderr = replication_summary(paths)
    write_aggregate_csv(os.path.join(out, "aggregate.csv"),
                        paths[0].times, mean, stderr, written)
    if per_rep:
        for r, p in enumerate(paths):
            write_trajectory_csv(os.path.join(out, f"rep_{r:03d}.csv"),
                                 p.times, p.x, "x", written)
    events_per_rep = [p.events for p in paths]
    events = sum(events_per_rep)
    write_json(os.path.join(out, "simulate.json"), {
        "N": int(N), "T": float(T), "replications": int(reps),
        "samples": int(samples), "seed": int(seed), "events": events,
        "events_per_rep": events_per_rep, "rng": paths[0].meta["rng"],
    }, written)
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
                          parse_int=lambda number: finite(number, parse_int))
    except json.JSONDecodeError:
        return token


def _list_index(items: list, token: str, label: str) -> int:
    """token as an index of items: digits only, below len(items)."""
    if not (token.isascii() and token.isdigit() and int(token) < len(items)):
        raise ConfigError(f"sweep parameter path '{label}': bad index '{token}'")
    return int(token)


def _set_config_path(doc, tokens, value, label: str):
    """A copy of doc with value at the path; only the containers along it are copied."""
    new = cur = doc.copy() if isinstance(doc, (dict, list)) else doc
    for t in tokens[:-1]:
        if isinstance(cur, list):
            t = _list_index(cur, t, label)
        elif not (isinstance(cur, dict) and t in cur):
            raise ConfigError(f"sweep parameter path '{label}' not found at '{t}'")
        if isinstance(cur[t], (dict, list)):
            cur[t] = cur[t].copy()
        cur = cur[t]
    last = tokens[-1]
    if isinstance(cur, list):
        cur[_list_index(cur, last, label)] = value
    elif isinstance(cur, dict):
        cur[last] = value
    else:
        raise ConfigError(f"sweep parameter path '{label}' does not address a field")
    return new


_SWEEP_OPS = {
    "validate": _run_validate,
    "stationary": _run_stationary,
    "stability": _run_stability,
}


def _run_sweep(config: str, out: str, written: dict, param: str, values: list[str], op: str):
    base = read_config_doc(config)
    tokens = param.split(".")
    vals = [_parse_sweep_value(v) for v in values]
    if not vals:
        raise ValueError("sweep needs at least one value")
    docs = [_set_config_path(base, tokens, val, param) for val in vals]
    # the documents share every subtree off the path with base, and nothing
    # mutates them from here on: the memo checks each document's fields once,
    # and encodes, reads and validates what they share once
    memo = {}
    for doc in docs:  # every value's fields are checked before any run
        check_fields(doc, memo)
    results = []
    worst = 0
    for k, (val, doc) in enumerate(zip(vals, docs)):
        sub = os.path.join(out, f"val_{k}")
        os.makedirs(sub, exist_ok=True)
        write_config_doc(os.path.join(sub, "config.json"), doc, written, memo)
        try:  # the op takes the document itself, not the file just written
            code, summary = _SWEEP_OPS[op](doc, sub, written, memo=memo)
        except _VALIDATION_ERRORS + _NUMERICAL_ERRORS as e:
            code, summary = _exit_code(e), {"error": str(e)}
        results.append({"value": val, "dir": f"val_{k}",
                        "status": code, "summary": summary})
        worst = max(worst, code)
    write_json(os.path.join(out, "sweep.json"),
               {"param": param, "op": op, "values": vals, "results": results}, written)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing leaves it as it was."""
    return build_parser()


def run(argv=None) -> int:
    """Parse argv and execute; returns the exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except _UsageError as e:
        print(f"hbmfg: error: {e}", file=sys.stderr)
        return 1

    opts = vars(args)
    cmd, handler = opts.pop("cmd"), opts.pop("handler")
    out = opts["out"] = _outdir(opts["out"])
    written = {}   # each file the run writes, with the SHA-256 of its bytes
    try:
        code, summary = handler(written=written, **opts)
    except _VALIDATION_ERRORS + _NUMERICAL_ERRORS as e:
        code = _exit_code(e)
        print(f"hbmfg {cmd}: {'numerical failure: ' if code == 2 else ''}{e}",
              file=sys.stderr)
        summary = {"cmd": cmd, "ok": False, "error": str(e)}
        if code == 1:  # a rejected input leaves no artifacts behind
            _emit(summary)
            return 1
        write_json(os.path.join(out, "error.json"), {"cmd": cmd, "error": str(e)}, written)

    try:
        cfg_hash = config_sha256(opts["config"])
    except OSError:
        cfg_hash = None
    write_manifest(out, ["hbmfg"] + argv, cfg_hash, __version__, written)
    _emit(summary)
    return code


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
