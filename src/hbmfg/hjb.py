"""Backward payoff dynamics and best-response control.

g[i, j] is the discounted payoff of sitting at state (i, j).  Running the
dynamic-programming equation backward from a terminal payoff, an agent's only
lever is the behaviour switch: the gain of moving (i,j) -> (i,k) is
g[i,k] - g[i,j] - fee_B[j,k], and staying put is always available.  Pressure
moves and stimulated moves (weighted by the current occupation) act on the
agent regardless, with the downgrade fine charged on every enforced drop.
"""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .kinetics import Trajectory, rk4_step
from .model import GameConfig, control_array, occupation_array, payoff_array

__all__ = [
    "HjbError",
    "switch_gains",
    "hjb_rhs",
    "optimal_control",
    "consistency_margin",
    "integrate_backward",
    "stationary_payoff_residual",
]

# A switch is taken only when it beats staying by more than this.
SWITCH_TOL = 1e-12
# States with occupation above this count as occupied for consistency checks.
OCCUPIED_TOL = 1e-9


class HjbError(RuntimeError):
    pass


def switch_gains(g: np.ndarray, cfg: GameConfig) -> np.ndarray:
    """gains[i, j, k] = g[i,k] - g[i,j] - fee_B[j,k] (net value of j -> k)."""
    return g[:, None, :] - g[:, :, None] - cfg.fee_B[None, :, :]


def _pressure_payoff(g: np.ndarray, cfg: GameConfig, x: Optional[np.ndarray]) -> np.ndarray:
    n = cfg.n
    up_diff = np.zeros_like(g)
    dn_diff = np.zeros_like(g)
    if n > 1:
        up_diff[:-1] = g[1:] - g[:-1]
        dn_diff[1:] = g[:-1] - g[1:]
    dn_diff -= cfg.fee_H[:, None]  # fine charged on every enforced drop
    out = cfg.q_up * up_diff + cfg.q_down * dn_diff
    if cfg.delta_int != 0.0 and x is not None:
        s_up = np.einsum("ijk,ik->ij", cfg.q_up_evo, x)
        s_dn = np.einsum("ijk,ik->ij", cfg.q_down_evo, x)
        out += cfg.delta_int * (s_up * up_diff + s_dn * dn_diff)
    return out


def hjb_rhs(g, x, u, cfg: GameConfig) -> np.ndarray:
    """Backward-time derivative dg/dt under a supplied control.

    u as in kinetic_rhs (None = nobody switches).  x feeds the stimulated
    move coefficients; it may be None when delta_int is zero.
    """
    ga = payoff_array(g)
    xa = None if x is None else occupation_array(x)
    if cfg.delta_int != 0.0 and xa is None:
        raise HjbError("occupation required when delta_int > 0")
    out = cfg.delta_dis * ga - cfg.w - _pressure_payoff(ga, cfg, xa)
    if u is not None and cfg.lam != 0.0 and cfg.m > 1:
        ua = control_array(u, cfg.n, cfg.m)
        out -= cfg.lam * np.einsum("ijk,ijk->ij", ua, switch_gains(ga, cfg))
    return out


def optimal_control(g, cfg: GameConfig) -> np.ndarray:
    """Best response to a payoff matrix: switch only on a strictly positive gain.

    Returns the (n, m, m) 0/1 decision tensor u[i, from_j, to_k].  Gains
    within 1e-12 of zero keep the agent in place; among tied positive gains
    the lowest target index wins (deterministic).
    """
    ga = payoff_array(g)
    n, m = cfg.n, cfg.m
    u = np.zeros((n, m, m))
    if m == 1:
        return u
    gains = switch_gains(ga, cfg)
    gains[:, np.arange(m), np.arange(m)] = -np.inf
    best = np.argmax(gains, axis=2)  # first maximum = lowest k on exact ties
    take = np.take_along_axis(gains, best[..., None], axis=2)[..., 0] > SWITCH_TOL
    ii, jj = np.nonzero(take)
    u[ii, jj, best[ii, jj]] = 1.0
    return u


def consistency_margin(g, x, cfg: GameConfig) -> float:
    """Largest switch gain available anywhere the population actually sits.

    Nonpositive means no occupied state profits from deviating.  With a single
    behaviour level there is nothing to deviate to: returns -inf.
    """
    if cfg.m == 1:
        return float("-inf")
    ga = payoff_array(g)
    xa = occupation_array(x)
    gains = switch_gains(ga, cfg)
    gains[:, np.arange(cfg.m), np.arange(cfg.m)] = -np.inf
    occupied = xa > OCCUPIED_TOL
    if not occupied.any():
        return float("-inf")
    return float(gains[occupied].max())


def _as_occupation_provider(occupation):
    if callable(occupation) and not isinstance(occupation, np.ndarray):
        return lambda t: occupation_array(occupation(t))
    fixed = None if occupation is None else occupation_array(occupation)
    return lambda t: fixed


def integrate_backward(
    gT,
    occupation,
    t0: float,
    t1: float,
    dt: float,
    cfg: GameConfig,
    mode: str = "fixed",
    control=None,
    store_stride: int = 1,
) -> Trajectory:
    """Integrate the payoff equation from g(t1)=gT back to t0 (RK4, reversed time).

    occupation: matrix, callable t -> matrix, or None (only when delta_int=0).
    mode "fixed": the supplied control (None = nobody switches) is used as is;
    mode "optimizing": the best response to the current g is recomputed at
    every stage evaluation.  Returns a Trajectory with times ascending t0..t1,
    g at the nodes and, in optimizing mode, the extracted per-cell control
    u[k] = best response to g(times[k]).
    """
    if mode not in ("fixed", "optimizing"):
        raise ValueError(f"unknown mode {mode!r}")
    if not (t1 > t0):
        raise ValueError("need t1 > t0")
    if not (0 < dt <= t1 - t0):
        raise ValueError("need 0 < dt <= t1 - t0")
    n_steps = max(1, int(round((t1 - t0) / dt)))
    h = (t1 - t0) / n_steps
    x_of = _as_occupation_provider(occupation)
    u_of = None
    if mode == "fixed":
        u_of = (lambda t: control(t)) if callable(control) and not isinstance(
            control, np.ndarray
        ) else (lambda t: control)

    # Reversed clock s = t1 - t: dh/ds = -hjb_rhs(h, x(t1-s), u).
    g = payoff_array(gT).copy()
    rev = [g.copy()]
    rev_times = [t1]
    for k in range(n_steps):
        s = k * h
        t_mid = t1 - (s + 0.5 * h)
        x_mid = x_of(t_mid)
        if mode == "optimizing":
            f = lambda y: -hjb_rhs(y, x_mid, optimal_control(y, cfg), cfg)
        else:
            u_mid = u_of(t_mid)
            f = lambda y: -hjb_rhs(y, x_mid, u_mid, cfg)
        g = rk4_step(f, g, h)
        if not np.all(np.isfinite(g)):
            raise HjbError(
                f"non-finite payoff at t={t1 - (k + 1) * h:.6g}; reduce dt (dt={h:.3g})"
            )
        if (k + 1) % store_stride == 0 or k == n_steps - 1:
            rev.append(g.copy())
            rev_times.append(t1 - (k + 1) * h)

    times = np.array(rev_times[::-1])
    gs = np.array(rev[::-1])
    traj = Trajectory(times=times, g=gs, meta={"dt": h, "mode": mode})
    if mode == "optimizing":
        traj.u = np.array([optimal_control(gs[k], cfg) for k in range(len(times) - 1)])
    return traj.check()


def stationary_payoff_residual(g, x, cfg: GameConfig) -> np.ndarray:
    """Residual of the switch-free stationary payoff balance at (g, x).

    Entrywise zero exactly when g is a stationary payoff for occupation x
    with nobody switching.
    """
    return -hjb_rhs(g, x, None, cfg)
