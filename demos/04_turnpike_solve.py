"""Coupled forward-backward solve: fee protection and the turnpike.

The solver iterates best responses: integrate the population forward under
the current switching policy, then the payoff backward against that path
while extracting the best response, until the policy is its own best
response.  Two runs here: first with switching fees sized above the
whole payoff scale (nobody ever switches, and the population parks at the
stationary point for most of the horizon), then with cheap fees (switching
happens and the no-switch policy stops being a best response).

Run:  python demos/04_turnpike_solve.py
"""
from __future__ import annotations

import numpy as np

from hbmfg.model import GameConfig, Occupation
from hbmfg.solver import (
    boundary_tangent_condition,
    default_dt,
    default_horizon,
    rate_ordering_check,
    solve_mfg,
    turnpike_metrics,
)
from hbmfg.stationary import stationary_solution

np.set_printoptions(precision=4, suppress=True)


def build_config(fee: float) -> GameConfig:
    n = m = 3
    # pressure rates increasing across behaviour columns (column 1 gentlest):
    # under this ordering the fee bound below keeps everyone put
    base = np.array([1.0, 1.3])
    col = np.array([1.0, 1.2, 1.4])
    q_up = np.zeros((n, m))
    q_up[:-1] = base[:, None] * col[None, :]
    q_down = np.zeros((n, m))
    q_down[1:] = q_up[:-1]
    evo = np.zeros((n, m, m))
    w = np.array([
        [1.9, 1.0, 0.8],
        [1.7, 0.9, 0.7],
        [1.5, 0.8, 0.6],
    ])
    fee_B = fee * (1.0 - np.eye(m))
    return GameConfig(n=n, m=m, q_up=q_up, q_down=q_down,
                      q_up_evo=evo, q_down_evo=evo,
                      w=w, fee_B=fee_B, fee_H=np.zeros(n),
                      lam=1.0, delta=0.05, regime="id1",
                      detailed_balance=True)


def run(label: str, cfg: GameConfig, x0: np.ndarray) -> None:
    T = default_horizon(cfg)
    dt = default_dt(cfg)
    res = solve_mfg(x0, np.zeros((cfg.n, cfg.m)), T, dt, cfg)
    tm = turnpike_metrics(res, cfg)
    print(f"--- {label} ---")
    print(f"horizon T={T:.1f}, dt={dt:g}, "
          f"converged={res.converged} after {res.iterations} iteration(s)")
    print(f"fraction of steps with any switching: {tm.switch_fraction:.3f}")
    print(f"worst switching gain along the payoff path: "
          f"{res.meta['cone_worst']:+.3f}")
    print(f"behaviour masses at t=0: {x0.sum(axis=0)}")
    print(f"behaviour masses at t=T: {res.trajectory.x[-1].sum(axis=0)}")
    print(f"middle-horizon distance to the stationary occupation: "
          f"{tm.sup_middle:.3e}")
    print()


def main() -> None:
    protected = build_config(fee=60.0)

    # the sufficient conditions for fee protection: link rates comparable
    # across every pair of columns, and the payoff flow pointing back into
    # the no-switch region wherever a switch would just break even
    for entry in rate_ordering_check(protected):
        print(f"rate ordering columns {entry['alpha'] + 1},{entry['beta'] + 1}:"
              f" holds={entry['holds']} ({entry['direction']})")
    g_probe = np.zeros((3, 3))
    g_probe[:, 1] = protected.fee_B[0, 1]  # 1 -> 2 exactly breaks even
    x_probe = Occupation.uniform(3, 3).x
    value, leading = boundary_tangent_condition(g_probe, x_probe, protected,
                                                level=0, alpha=0, beta=1)
    print(f"payoff drift at a break-even 1->2 switch: {value:+.3f}"
          f" (leading pressure part {leading:+.3f}); negative repels")
    print()

    # With protective fees nobody switches, so behaviour masses are frozen:
    # starting at the stationary occupation the population just stays there.
    # Starting anywhere else it parks at the wrong split forever; only cheap
    # fees let the population migrate to the dominant behaviour, and then the
    # trajectory hugs the stationary point for most of the horizon.
    x_star = stationary_solution(protected).x0.x
    x_even = Occupation.uniform(3, 3).x
    run("protective fees, started at the stationary point", protected, x_star)
    run("protective fees, started at the even split", protected, x_even)
    run("cheap fees (0.05), started at the even split",
        build_config(fee=0.05), x_even)


if __name__ == "__main__":
    main()
