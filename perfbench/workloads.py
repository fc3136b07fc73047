"""Workload definitions: the CLI operations each workload runs, and its inputs.

An operation is one `hbmfg` command line, run in-process through
`hbmfg.cli.run`.  A round is a workload's fixed list of operations; a run
repeats whole rounds.  Every input is a pure function of the seed.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

EXAMPLE = os.path.join("configs", "example.json")

# Stay-put solves: one seeded 10 x 10 config (100 states), 1750 steps of 0.05.
STAYPUT_SIZE = 10
STAYPUT_T = 87.5
STAYPUT_DT = 0.05
STAYPUT_DELTA = 0.05

# Mean-field simulation: many small replications, then few large ones.
SIM_T = 0.1
SIM_SAMPLES = 10
SIM_SMALL = (1000, 64)    # (N, replications)
SIM_LARGE = (10000, 16)

# Fixed grid of base scales for the analysis sweeps (halving every two).
SWEEP_DELTAS = ("0.1", "0.0707", "0.05", "0.0354", "0.025", "0.0177", "0.0125", "0.00884")

# Probes: small operations of the kinds a workload lacks, so that every
# end-to-end metric is measured on every workload.  A run has at least
# MIN_PROBE_SETS probe sets, spread over it (run.timed_run).
PROBE_STAYPUT_T = 5.0
PROBE_SIM = (1000, 16)
MIN_PROBE_SETS = 60


@dataclass(frozen=True)
class Op:
    """One CLI call: argv without --out, and what the checks need to know."""

    kind: str            # "solve", "simulate" or "sweep"
    label: str           # unique within the run; names the output directory
    argv: tuple
    check: str           # name of the check in checks.CHECKS
    info: dict = field(default_factory=dict, hash=False, compare=False)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str          # the kind of every operation in a round
    min_rounds: int    # two rounds let the checks compare equal commands
    probe_every: int   # rounds per probe set
    round_ops: Callable[[int, str], list]   # (seed, config directory) -> ops


def stayput_doc(rng: np.random.Generator, size: int = STAYPUT_SIZE,
                delta: float = STAYPUT_DELTA) -> dict:
    """Rate-ordered config on which no agent ever switches.

    Pressure rates factor as base[i] * c[j] with c increasing, detailed
    balanced, with balanced stimulated rates.  Rewards are nonnegative and
    there are no fines, so 0 <= g[i, k] <= max_i w[i, k] / delta_dis.  Every
    fee into column k exceeds 1.5 times that resolvent bound, so every switch
    gain stays below zero for any horizon.
    """
    n = m = size
    base = rng.uniform(0.5, 1.5, size=n - 1)
    c = np.sort(rng.uniform(0.8, 2.0, size=m))
    q_up = np.zeros((n, m))
    q_up[:-1] = base[:, None] * c[None, :]
    q_down = np.zeros((n, m))
    q_down[1:] = q_up[:-1]
    que = np.zeros((n, m, m))
    que[:-1] = rng.uniform(0.1, 0.4, size=(n - 1, m, m))
    qde = np.zeros((n, m, m))
    qde[1:] = que[:-1]
    w = rng.uniform(0.2, 1.0, size=(n, m))
    b = int(rng.integers(m))
    sums = w.sum(axis=0)
    lead = np.delete(sums, b).max() + 1.0
    if sums[b] < lead:
        w[:, b] += (lead - sums[b]) / n
    fee_B = np.tile(1.5 * w.max(axis=0) / delta + 0.5, (m, 1))
    np.fill_diagonal(fee_B, 0.0)
    return {
        "dimensions": {"n": n, "m": m},
        "rates": {"q_up": q_up.tolist(), "q_down": q_down.tolist(),
                  "q_up_evo": que.tolist(), "q_down_evo": qde.tolist()},
        "economics": {"w": w.tolist(), "fee_B": fee_B.tolist(),
                      "fee_H": [0.0] * n},
        "scales": {"lambda": 1.0, "delta": delta, "regime": "id1"},
        "flags": {"detailed_balance": True},
    }


def write_stayput_config(seed: int, cfg_dir: str) -> str:
    """Write the seed's stay-put config into cfg_dir; return its path."""
    os.makedirs(cfg_dir, exist_ok=True)
    path = os.path.join(cfg_dir, "stayput.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stayput_doc(np.random.default_rng([seed, 10])), fh)
    return path


def sim_seeds(seed: int) -> list:
    return [int(s) for s in np.random.default_rng([seed, 20]).integers(0, 2**31 - 1, size=3)]


def _solve_op(label, cfg, T=None, dt=None, check="solve_example"):
    argv = ["solve", cfg]
    if T is not None:
        argv += ["--T", repr(T), "--dt", repr(dt)]
    return Op("solve", label, tuple(argv), check, {"config": cfg})


def _sim_op(label, N, reps, seed, compare_with=None):
    argv = ("simulate", EXAMPLE, "--N", str(N), "--T", repr(SIM_T), "--reps", str(reps),
            "--seed", str(seed), "--samples", str(SIM_SAMPLES))
    return Op("simulate", label, argv, "simulate",
              {"config": EXAMPLE, "N": N, "reps": reps, "T": SIM_T, "samples": SIM_SAMPLES,
               "compare_with": compare_with})


def _sweep_ops(prefix):
    return [Op("sweep", f"{prefix}{op}",
               ("sweep", EXAMPLE, "--param", "scales.delta", "--values", *SWEEP_DELTAS,
                "--op", op),
               f"sweep_{op}", {"config": EXAMPLE, "deltas": [float(v) for v in SWEEP_DELTAS]})
            for op in ("stationary", "stability")]


def _solve_example(seed, cfg_dir):
    return [_solve_op("solve_example", EXAMPLE)]


def _solve_stayput(seed, cfg_dir):
    return [_solve_op("stayput", write_stayput_config(seed, cfg_dir), STAYPUT_T, STAYPUT_DT,
                      "solve_stayput")]


def _simulate_meanfield(seed, cfg_dir):
    s = sim_seeds(seed)
    return [_sim_op("sim_small", *SIM_SMALL, s[0]),
            _sim_op("sim_large", *SIM_LARGE, s[1], compare_with="sim_small")]


def _analysis_sweep(seed, cfg_dir):
    return _sweep_ops("sweep_")


WORKLOADS = {w.name: w for w in (
    Workload("solve-example",
             "the example's coupled solve with switching at its default horizon; "
             "sweep count, best response and Control checks dominate",
             "solve", 1, 1, _solve_example),
    Workload("solve-stayput",
             "a seeded 10x10 stay-put solve that converges in one sweep; per-stage numpy "
             "cost and the largest control path, bypassing the outer iteration",
             "solve", 2, 1, _solve_stayput),
    Workload("simulate-meanfield",
             "exact event simulation of the example at N=1e3 (many replications) and "
             "N=1e4 (few); per-replication set-up against per-event cost",
             "simulate", 2, 1, _simulate_meanfield),
    Workload("analysis-sweep",
             "stationary and stability sweeps over a fixed delta grid; the analysis "
             "layers and the cli/io cost of many small artifacts",
             "sweep", 2, 4, _analysis_sweep),
)}


def probe_ops(workload: Workload, seed: int, cfg_dir: str) -> list:
    """One probe operation of each kind other than the workload's own."""
    ops = []
    if workload.kind != "solve":
        ops.append(_solve_op("probe_solve", write_stayput_config(seed, cfg_dir),
                             PROBE_STAYPUT_T, STAYPUT_DT, "solve_stayput"))
    if workload.kind != "simulate":
        ops.append(_sim_op("probe_sim", *PROBE_SIM, sim_seeds(seed)[2]))
    if workload.kind != "sweep":
        ops.extend(_sweep_ops("probe_"))
    return ops
