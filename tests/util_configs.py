"""Shared config builders for the test suite.

Every builder takes an explicit rng so tests stay reproducible; none of them
touch module-level random state.
"""
from __future__ import annotations

import importlib.util
import json
import os
import sys

import numpy as np

from hbmfg import Control, GameConfig, Regime, SinkRates

WORKLOADS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
ORACLE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "oracle.py")


def stayput_config(tmp_path, monkeypatch) -> str:
    """perfbench's seed-1 stay-put config (10 x 10), written into tmp_path; its path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads.write_stayput_config(1, str(tmp_path))


def load_oracle():
    """perfbench's reference model, written apart from the package, as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def steps_of(path: Control) -> np.ndarray:
    """A control path as its per-step stack of target matrices (n_steps, n, m)."""
    return np.repeat(path.targets, np.diff(path.starts, append=path.n_steps), axis=0)


def db_pressure(n: int, m: int, rng, lo: float = 0.3, hi: float = 2.0):
    """Detailed-balanced pressure pair: q_down[i+1] = q_up[i], boundary zeros."""
    q_up = np.zeros((n, m))
    if n > 1:
        q_up[:-1] = rng.uniform(lo, hi, size=(n - 1, m))
    q_down = np.zeros((n, m))
    q_down[1:] = q_up[:-1]
    return q_up, q_down


def nondb_pressure(n: int, m: int, rng, lo: float = 0.3, hi: float = 2.0):
    """Independent positive up/down rates with the boundary rows zeroed."""
    q_up = np.zeros((n, m))
    q_down = np.zeros((n, m))
    if n > 1:
        q_up[:-1] = rng.uniform(lo, hi, size=(n - 1, m))
        q_down[1:] = rng.uniform(lo, hi, size=(n - 1, m))
    return q_up, q_down


def evo_tensors(n: int, m: int, rng, balanced: bool = True, scale: float = 0.6):
    """Interaction tensors with legal boundary zeros.

    balanced=True mirrors the pressure detailed-balance identity on the
    stimulated rates (q_down_evo[i+1] = q_up_evo[i]), which makes per-column
    uniform occupations exact fixed points; balanced=False draws the down
    tensor independently so first-order occupation corrections are nonzero.
    """
    que = np.zeros((n, m, m))
    qde = np.zeros((n, m, m))
    if n > 1:
        que[:-1] = rng.uniform(0.1, scale, size=(n - 1, m, m))
        if balanced:
            qde[1:] = que[:-1]
        else:
            qde[1:] = rng.uniform(0.1, scale, size=(n - 1, m, m))
    return que, qde


def fees(n: int, m: int, off_diag: float = 1.5, fine: float = 0.0):
    fee_B = np.full((m, m), float(off_diag))
    np.fill_diagonal(fee_B, 0.0)
    fee_H = np.full(n, float(fine))
    return fee_B, fee_H


def make_config(
    n: int,
    m: int,
    rng,
    *,
    db: bool = True,
    balanced_evo: bool = True,
    with_evo: bool = True,
    gap: float = 1.0,
    b: int = 0,
    delta: float = 0.05,
    regime: Regime = Regime.ID1,
    lam: float = 1.0,
    fee_switch: float = 1.5,
    fine: float = 0.0,
    sink: bool = False,
) -> GameConfig:
    """Random valid config with an enforced dominance gap on column b.

    The gap is imposed on the column sums of the EFFECTIVE rewards
    (w minus the downward rates times fee_H), so it survives nonzero fines.
    sink=True moves the downward rates and tensors into q_sink (drops
    straight to level 1), which rules out detailed balance.
    """
    q_up, q_down = (db_pressure if db else nondb_pressure)(n, m, rng)
    if with_evo:
        que, qde = evo_tensors(n, m, rng, balanced=balanced_evo)
    else:
        que = np.zeros((n, m, m))
        qde = np.zeros((n, m, m))
    q_sink = None
    if sink:
        q_sink = SinkRates(direct=q_down, interaction=qde)
        q_down, qde, db = np.zeros((n, m)), np.zeros((n, m, m)), False
    fee_B, fee_H = fees(n, m, off_diag=fee_switch, fine=fine)
    w = rng.uniform(0.5, 2.0, size=(n, m))
    drops = q_sink.direct if sink else q_down
    eff = w - drops * fee_H[:, None]
    sums = eff.sum(axis=0)
    others = np.delete(sums, b)
    target = (others.max() if others.size else 0.0) + gap
    if sums[b] < target:
        w = w.copy()
        w[:, b] += (target - sums[b]) / n
    return GameConfig(
        n=n, m=m, q_up=q_up, q_down=q_down,
        q_up_evo=que, q_down_evo=qde,
        w=w, fee_B=fee_B, fee_H=fee_H,
        lam=lam, delta=delta, regime=regime,
        detailed_balance=db, q_sink=q_sink,
    )


def cycle_config() -> GameConfig:
    """Strong interaction whose best-response iteration cycles with period 2.

    From the uniform occupation with T = 4 and dt = 0.05 the best responses
    of sweeps 4 and 6 are equal, and sweep 5's differs from both.
    """
    return make_config(3, 3, np.random.default_rng(177), db=True, balanced_evo=False,
                       delta=1.5, regime=Regime.ID2, gap=2.0, fee_switch=0.2)


def theorem_config(
    n: int,
    m: int,
    rng,
    *,
    delta: float = 0.05,
    delta_min: float = 0.025,
    gap: float = 1.0,
    b: int = 0,
    with_evo: bool = True,
    slack: float = 0.5,
) -> GameConfig:
    """Config on which cone invariance under u == 0 is provable.

    Rates factor as base_i * c_j with c increasing in j, so the rate-ordering
    report holds for every pair.  Rewards are nonnegative with a dominance
    gap, fines are zero, and fee_B[a, b] exceeds the resolvent bound
    max_i w[i, b] / delta_min by a factor 1.5 plus slack; since 0 <= g(s) and
    g[i, b] <= max_i w[i, b] / delta for all s, every switch margin stays
    below -slack for any delta >= delta_min.
    """
    base = rng.uniform(0.5, 1.5, size=n - 1)
    c = np.sort(rng.uniform(0.8, 2.0, size=m))
    q_up = np.zeros((n, m))
    q_up[:-1] = base[:, None] * c[None, :]
    q_down = np.zeros((n, m))
    q_down[1:] = q_up[:-1]
    if with_evo:
        que, qde = evo_tensors(n, m, rng, balanced=True, scale=0.4)
    else:
        que = np.zeros((n, m, m))
        qde = np.zeros((n, m, m))
    w = rng.uniform(0.2, 1.0, size=(n, m))
    sums = w.sum(axis=0)
    others = np.delete(sums, b)
    target = (others.max() if others.size else 0.0) + gap
    if sums[b] < target:
        w[:, b] += (target - sums[b]) / n
    fee_B = np.zeros((m, m))
    for beta in range(m):
        bound = 1.5 * float(w[:, beta].max()) / delta_min + slack
        fee_B[:, beta] = bound
    np.fill_diagonal(fee_B, 0.0)
    return GameConfig(
        n=n, m=m, q_up=q_up, q_down=q_down,
        q_up_evo=que, q_down_evo=qde,
        w=w, fee_B=fee_B, fee_H=np.zeros(n),
        lam=1.0, delta=delta, regime=Regime.ID1,
        detailed_balance=True,
    )


def config_doc(cfg: GameConfig) -> dict:
    """GameConfig serialized back into the config file schema."""
    doc = {
        "dimensions": {"n": cfg.n, "m": cfg.m},
        "rates": {
            "q_up": cfg.q_up.tolist(),
            "q_down": cfg.q_down.tolist(),
            "q_up_evo": cfg.q_up_evo.tolist(),
            "q_down_evo": cfg.q_down_evo.tolist(),
        },
        "economics": {
            "w": cfg.w.tolist(),
            "fee_B": cfg.fee_B.tolist(),
            "fee_H": cfg.fee_H.tolist(),
        },
        "scales": {
            "lambda": cfg.lam,
            "delta": cfg.delta,
            "regime": cfg.regime.value,
        },
        "flags": {"detailed_balance": cfg.detailed_balance},
    }
    if cfg.q_sink is not None:
        doc["rates"]["q_sink"] = {
            "direct": cfg.q_sink.direct.tolist(),
            "interaction": cfg.q_sink.interaction.tolist(),
        }
    return doc


def write_config(path, cfg: GameConfig) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_doc(cfg), fh, indent=2)
        fh.write("\n")
    return str(path)
