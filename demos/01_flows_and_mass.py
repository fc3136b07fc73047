"""Flows on the state grid: pressure, interaction, and decisions.

Agents live on a 3-level x 2-behaviour grid.  Principal pressure moves them
up and down the hierarchy within a behaviour column, same-level interactions
stimulate extra moves, and the agents' own decisions switch columns.  This
script builds a small configuration by hand, checks it, and integrates the
population density to show what each flow does to the mass balance.

Run:  python demos/01_flows_and_mass.py
"""
from __future__ import annotations

import numpy as np

from hbmfg.kinetics import integrate_forward, kinetic_rhs
from hbmfg.model import GameConfig, Occupation, validate

np.set_printoptions(precision=4, suppress=True)


def build_config() -> GameConfig:
    n, m = 3, 2
    # Upward pressure per state; the top level has nowhere to go.
    q_up = np.array([
        [1.0, 0.8],
        [1.5, 1.2],
        [0.0, 0.0],
    ])
    # Detailed balance: each down rate mirrors the up rate one level below.
    q_down = np.zeros((n, m))
    q_down[1:] = q_up[:-1]
    # Interactions: a level-0 agent paired with a same-level peer gets pushed
    # up a bit faster.  Balanced so the uniform profile stays a fixed point.
    q_up_evo = np.zeros((n, m, m))
    q_up_evo[0, :, :] = 0.4
    q_up_evo[1, :, :] = 0.2
    q_down_evo = np.zeros((n, m, m))
    q_down_evo[1:] = q_up_evo[:-1]
    w = np.array([
        [1.0, 0.3],
        [0.8, 0.2],
        [0.5, 0.1],
    ])
    fee_B = np.array([[0.0, 0.5], [0.5, 0.0]])
    fee_H = np.zeros(n)
    return GameConfig(n=n, m=m, q_up=q_up, q_down=q_down,
                      q_up_evo=q_up_evo, q_down_evo=q_down_evo,
                      w=w, fee_B=fee_B, fee_H=fee_H,
                      lam=1.0, delta=0.1, regime="id2",
                      detailed_balance=True)


def main() -> None:
    cfg = build_config()
    problems = validate(cfg)
    print(f"validate: {len(problems)} problem(s)")

    x0 = Occupation(np.array([
        [0.10, 0.30],
        [0.10, 0.25],
        [0.05, 0.20],
    ]))
    print("\ninitial occupation (rows = levels, cols = behaviours):")
    print(x0.x)
    print("column masses:", x0.x.sum(axis=0))

    # With nobody switching behaviour, each column is a closed chain: the
    # column masses are conserved exactly and each column relaxes to its
    # own internal equilibrium.
    traj = integrate_forward(x0.x, None, 0.0, 8.0, 0.01, cfg)
    xT = traj.x[-1]
    print("\nafter t=8 with the stay-put control:")
    print(xT)
    print("column masses:", xT.sum(axis=0), "(unchanged)")
    print("total mass drift:", abs(xT.sum() - 1.0))

    # Detailed balance makes the within-column equilibrium uniform: every
    # level of a column ends up with the same share of that column's mass.
    print("per-level spread within columns:",
          np.max(xT - xT.mean(axis=0, keepdims=True)))

    # Now let everyone in behaviour 2 switch to behaviour 1.  Column mass
    # drains at the decision-clock rate lam.  A control is the target
    # behaviour of every state: target[i, j] == j stays, and the all-zero
    # target matrix sends every state to behaviour 1 (0-based index 0).
    u = np.zeros((3, 2), int)
    traj2 = integrate_forward(x0.x, u, 0.0, 8.0, 0.01, cfg)
    for t_query in (0.0, 1.0, 3.0, 8.0):
        k = int(round(t_query / 0.01))
        mass2 = traj2.x[k].sum(axis=0)[1]
        print(f"t={t_query:4.1f}: mass in behaviour 2 = {mass2:.4f}"
              f"  (exp(-lam t) = {np.exp(-cfg.lam * t_query) * 0.75:.4f})")

    # The right-hand side at the final state is tiny: we are at the global
    # equilibrium of the drained system.
    print("\n|rhs| at the drained equilibrium:",
          float(np.max(np.abs(kinetic_rhs(traj2.x[-1], u, cfg)))))


if __name__ == "__main__":
    main()
