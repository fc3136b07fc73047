"""Coupled forward-backward solve and its diagnostics.

The forward occupation flow and the backward payoff flow are coupled through
the switching control: agents switch when the gain (payoff difference net of
the switching fee) is positive.  A damped fixed-point iteration alternates
the two integrations on one shared uniform grid until the binary control
path reproduces itself exactly and the relaxed occupation path settles.

The diagnostics certify the no-switching regime: cone_check measures the best
switching gain anywhere, boundary_tangent_condition evaluates the payoff flow
exactly on a switching boundary, and rate_ordering_check tests the per-pair
rate comparability that keeps boundaries repelling.  turnpike_metrics
measures how long a finite-horizon solve hugs the stationary expansion.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .hjb import hjb_rhs, integrate_backward, switch_gains
from .kinetics import Trajectory, integrate_forward
from .model import GameConfig, occupation_array, payoff_array
from .stationary import StationaryError, stationary_solution

__all__ = [
    "SolverError",
    "MfgSolveResult",
    "TurnpikeMetrics",
    "solve_mfg",
    "cone_check",
    "boundary_tangent_condition",
    "rate_ordering_check",
    "turnpike_metrics",
    "default_horizon",
    "default_dt",
]

log = logging.getLogger(__name__)

X_SETTLE_TOL = 1e-8     # sup-norm change of the relaxed occupation path
VIOLATION_CAP = 1000    # stored cone violations before truncation
BOUNDARY_TOL = 1e-9     # how exactly a probe triple must sit on the boundary


class SolverError(RuntimeError):
    pass


def default_horizon(cfg: GameConfig) -> float:
    """Long-but-finite horizon: 50 over the smallest positive pressure rate."""
    rates = np.concatenate([cfg.q_up.ravel(), cfg.q_down.ravel()])
    pos = rates[rates > 0.0]
    if pos.size == 0:
        raise SolverError("config has no positive pressure rates; pick a horizon")
    return 50.0 / float(pos.min())

def default_dt(cfg: GameConfig) -> float:
    # conservative for fixed-step RK4: half the fastest per-state outflow time
    out = cfg.q_up + cfg.q_down
    out = out + cfg.delta_int * (cfg.q_up_evo.sum(axis=2) + cfg.q_down_evo.sum(axis=2))
    peak = max(float(out.max()), cfg.lam, 1e-12)
    return min(0.05, 0.5 / peak)


def _step_index(t: float, h: float, n_steps: int) -> int:
    return min(n_steps - 1, max(0, int(t / h)))


def _control_provider(u_path: np.ndarray, h: float):
    n_steps = len(u_path)

    def provider(t: float):
        return u_path[_step_index(t, h, n_steps)]

    return provider


def _occupation_provider(x_path: np.ndarray, h: float):
    # piecewise-linear in t; backward stages only ever query step midpoints
    n_steps = len(x_path) - 1

    def provider(t: float):
        k = _step_index(t, h, n_steps)
        frac = t / h - k
        return (1.0 - frac) * x_path[k] + frac * x_path[k + 1]

    return provider


def cone_check(g, cfg: GameConfig) -> float:
    """Best switching gain at g; <= 0 means g lies inside the no-switch cone."""
    if cfg.m == 1:
        return float("-inf")
    gains = switch_gains(payoff_array(g), cfg)
    k = np.arange(cfg.m)
    gains[:, k, k] = float("-inf")
    return float(gains.max())


@dataclass(frozen=True)
class MfgSolveResult:
    """Outcome of the damped forward-backward iteration.

    trajectory carries the final unrelaxed forward occupation path, the
    backward payoff path, and the per-step binary control path on one grid.
    turnpike_distance is the sup-distance to the stationary occupation per
    node (None when the stationary expansion is unavailable for the config).
    cone_violations lists (t, level, from, to, gain) where switching was
    profitable, truncated at VIOLATION_CAP entries.
    """

    trajectory: Trajectory
    iterations: int
    converged: bool
    oscillating: bool
    turnpike_distance: Optional[np.ndarray]
    cone_violations: List[Tuple[float, int, int, int, float]]
    meta: dict = field(default_factory=dict, repr=False)


def solve_mfg(
    x0,
    gT,
    T: float,
    dt: float,
    cfg: GameConfig,
    damping: float = 0.5,
    max_iter: int = 50,
) -> MfgSolveResult:
    """Damped fixed-point iteration on the coupled system over [0, T].

    Each sweep integrates forward under the current control path, relaxes the
    occupation path, then integrates backward optimizing to read off the best
    response.  Converged when the control path is reproduced bit-exactly and
    the relaxed occupation settles below 1e-8.  A period-2 control cycle is
    flagged as oscillating and met with halved damping.  meta reports the
    fixed-point residual: sup |forward x - the relaxed x the last backward
    sweep was integrated against|, 0.0 when the first sweep converges.
    """
    if not (T > 0.0) or not (0.0 < dt <= T):
        raise ValueError("need T > 0 and 0 < dt <= T")
    if not (0.0 < damping <= 1.0):
        raise ValueError("damping must lie in (0, 1]")
    x0a = occupation_array(x0)
    gTa = payoff_array(gT)
    n_steps = max(1, int(round(T / dt)))
    h = T / n_steps

    u_path = np.zeros((n_steps, cfg.n, cfg.m, cfg.m))
    u_prev = None
    x_relaxed = None
    theta = damping
    oscillating = False
    converged = False
    fwd = bwd = None
    iterations = 0
    dx = float("inf")
    residual = 0.0

    for it in range(max_iter):
        iterations = it + 1
        fwd = integrate_forward(x0a, _control_provider(u_path, h), 0.0, T, h, cfg)
        if x_relaxed is None:
            x_new = fwd.x.copy()
            dx = float("inf")
        else:
            x_new = theta * fwd.x + (1.0 - theta) * x_relaxed
            dx = float(np.max(np.abs(x_new - x_relaxed)))
            residual = float(np.max(np.abs(fwd.x - x_new)))
        bwd = integrate_backward(
            gTa, _occupation_provider(x_new, h), 0.0, T, h, cfg, mode="optimizing"
        )
        u_new = bwd.u
        if np.array_equal(u_new, u_path) and (x_relaxed is None or dx < X_SETTLE_TOL):
            converged = True
            x_relaxed = x_new
            break
        if u_prev is not None and np.array_equal(u_new, u_prev):
            theta *= 0.5
            level = logging.DEBUG if oscillating else logging.WARNING
            log.log(level, "period-2 control cycle at sweep %d; halving damping to %.3g",
                    iterations, theta)
            oscillating = True
        u_prev = u_path
        u_path = u_new
        x_relaxed = x_new

    if not converged:
        log.warning("forward-backward iteration hit max_iter=%d without settling", max_iter)

    traj = Trajectory(
        times=fwd.times,
        x=fwd.x,
        g=bwd.g,
        u=u_path,
        meta={"dt": h, "drift_max": fwd.meta.get("drift_max", 0.0),
              "projections": fwd.meta.get("projections", 0)},
    ).check()

    violations: List[Tuple[float, int, int, int, float]] = []
    cone_worst = float("-inf")
    if cfg.m > 1:
        k = np.arange(cfg.m)
        for idx, t in enumerate(traj.times):
            gains = switch_gains(traj.g[idx], cfg)
            gains[:, k, k] = float("-inf")
            worst = float(gains.max())
            cone_worst = max(cone_worst, worst)
            if worst > 0.0 and len(violations) <= VIOLATION_CAP:
                for i, a, b_ in zip(*np.nonzero(gains > 0.0)):
                    violations.append((float(t), int(i), int(a), int(b_),
                                       float(gains[i, a, b_])))
                    if len(violations) > VIOLATION_CAP:
                        log.warning("cone violation list truncated at %d", VIOLATION_CAP)
                        break
    violations = violations[:VIOLATION_CAP]

    turnpike = None
    try:
        sol = stationary_solution(cfg)
        turnpike = np.max(np.abs(traj.x - sol.x0.x), axis=(1, 2))
    except StationaryError:
        pass

    switch_fraction = float(np.mean(np.any(u_path != 0.0, axis=(1, 2, 3))))
    return MfgSolveResult(
        trajectory=traj,
        iterations=iterations,
        converged=converged,
        oscillating=oscillating,
        turnpike_distance=turnpike,
        cone_violations=violations,
        meta={
            "damping_final": theta,
            "fixed_point_residual": residual,
            "dx_final": dx,
            "cone_worst": cone_worst,
            "switch_fraction": switch_fraction,
        },
    )


def boundary_tangent_condition(
    g, x, cfg: GameConfig, level: int, alpha: int, beta: int
) -> Tuple[float, float]:
    """Payoff-flow tangency at a switching boundary point.

    The probe (level, alpha, beta) must satisfy g[level, beta] =
    g[level, alpha] + fee_B[alpha, beta] to within 1e-9 (else ValueError).
    Returns (value, leading): value is the exact difference of the switch-free
    payoff flows of the two behaviours at that level (<= 0 keeps the boundary
    repelling); leading keeps only the neighbor-difference pressure terms,
    dropping fines and rewards.
    """
    ga = payoff_array(g)
    margin = float(ga[level, beta] - cfg.fee_B[alpha, beta] - ga[level, alpha])
    scale = max(1.0, float(np.max(np.abs(ga))))
    if abs(margin) > BOUNDARY_TOL * scale:
        raise ValueError(
            f"probe triple is off the switching boundary (margin {margin:.3e})"
        )
    rhs = hjb_rhs(ga, x, None, cfg)
    value = float(rhs[level, alpha] - rhs[level, beta])

    def neighbor_part(j: int) -> float:
        acc = 0.0
        if level < cfg.n - 1:
            acc += cfg.q_up[level, j] * (ga[level + 1, j] - ga[level, j])
        if level > 0:
            acc += cfg.q_down[level, j] * (ga[level - 1, j] - ga[level, j])
        return acc

    leading = neighbor_part(beta) - neighbor_part(alpha)
    return value, leading


def rate_ordering_check(cfg: GameConfig) -> List[dict]:
    """Per-pair comparability of the link rates across behaviour columns.

    For each unordered pair of columns, reports whether one column's link
    rates dominate the other's at every level (the hypothesis under which
    switching boundaries repel).  Uses the up rates below the top level;
    under detailed balance these carry the whole chain.
    """
    q = cfg.q_up[: cfg.n - 1, :] if cfg.n > 1 else np.zeros((0, cfg.m))
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

    d0/d1: sup-distance per node to the uniform stationary occupation and to
    its interaction-corrected version.  g_distance: sup-distance per node to
    the assembled stationary payoff.  sup_middle_* take the supremum over the
    middle 80% of the horizon; plateau is the final d0 sample.
    """

    times: np.ndarray
    d0: np.ndarray
    d1: np.ndarray
    g_distance: np.ndarray
    sup_middle: float
    sup_middle_g: float
    plateau: float
    switch_fraction: float


def turnpike_metrics(result: MfgSolveResult, cfg: GameConfig) -> TurnpikeMetrics:
    sol = stationary_solution(cfg)
    traj = result.trajectory
    d0 = np.max(np.abs(traj.x - sol.x0.x), axis=(1, 2))
    d1 = np.max(np.abs(traj.x - sol.x_corrected), axis=(1, 2))
    gd = np.max(np.abs(traj.g - sol.g), axis=(1, 2))
    t0, t1 = traj.times[0], traj.times[-1]
    middle = (traj.times >= t0 + 0.1 * (t1 - t0)) & (traj.times <= t0 + 0.9 * (t1 - t0))
    switch_fraction = float(np.mean(np.any(traj.u != 0.0, axis=(1, 2, 3)))) if (
        traj.u is not None
    ) else 0.0
    return TurnpikeMetrics(
        times=traj.times,
        d0=d0,
        d1=d1,
        g_distance=gd,
        sup_middle=float(d0[middle].max()) if middle.any() else float(d0.max()),
        sup_middle_g=float(gd[middle].max()) if middle.any() else float(gd.max()),
        plateau=float(d0[-1]),
        switch_fraction=switch_fraction,
    )
