"""Backward payoff dynamics and best-response control.

g[i, j] is the discounted payoff of sitting at state (i, j).  Running the
dynamic-programming equation backward from a terminal payoff, an agent's only
lever is the behaviour switch: the gain of moving (i,j) -> (i,k) is
g[i,k] - g[i,j] - fee_B[j,k], and staying put is always available.  Pressure
moves and stimulated moves (weighted by the current occupation) act on the
agent regardless, with the downgrade fine charged on every enforced drop.
Both variants' level moves, step-down and sink, come from GameConfig.moves:
the payoff flow is the adjoint of the forward flow.
"""
from __future__ import annotations

import numpy as np

from .kinetics import Trajectory, control_steps, rk4_step, step_grid
from .model import GameConfig, control_array, occupation_array, payoff_array

__all__ = [
    "HjbError",
    "switch_gains",
    "hjb_rhs",
    "optimal_control",
    "consistency_margin",
    "integrate_backward",
]

# A switch is taken only when it beats staying by more than this.
SWITCH_TOL = 1e-12
# States with occupation above this count as occupied for consistency checks.
OCCUPIED_TOL = 1e-9


class HjbError(RuntimeError):
    pass


def switch_gains(g: np.ndarray, cfg: GameConfig) -> np.ndarray:
    """gains[..., i, j, k] = g[..., i, k] - g[..., i, j] - fee_B[j, k], the net
    value of switching j -> k, for one payoff matrix or a stack of them.

    Staying (k == j) is no switch and gains -inf, so a maximum over k is the
    best switch, and -inf when there is none (m == 1).
    """
    return g[..., None, :] - g[..., :, None] - cfg.switch_fee


def _best_targets(gains: np.ndarray) -> np.ndarray:
    # first maximum = lowest k on exact ties; within SWITCH_TOL of zero, stay
    best = np.argmax(gains, axis=-1)
    return np.where(gains.max(axis=-1) > SWITCH_TOL, best, np.arange(gains.shape[-1]))


def _payoff_kernel(x, switch, cfg: GameConfig):
    """dg/dt as a function of g at occupation x; switch(g) is the gain, net of
    the fee, that each state takes at rate lam (None: nobody switches)."""
    if x is None and cfg.moves.evo.any():
        raise HjbError("occupation required when the config has stimulated moves")
    mv, lam = cfg.moves, cfg.lam
    rate = mv.per_capita(x)

    def rhs(g):
        out = cfg.delta_dis * g - cfg.w - (rate * mv.payoff_change(g)).sum(axis=0)
        if switch is not None:
            out -= lam * switch(g)
        return out

    return rhs


def _target_gain(target: np.ndarray, cfg: GameConfig):
    fee = cfg.fee_B[np.arange(cfg.m), target]
    return lambda g: np.take_along_axis(g, target, axis=1) - g - fee


def hjb_rhs(g, x, u, cfg: GameConfig) -> np.ndarray:
    """Backward-time derivative dg/dt under a supplied control.

    u as in kinetic_rhs: a Control, an (n, m) target matrix or None (nobody
    switches).  x feeds the stimulated move coefficients; it may be None when
    the config has no stimulated moves.  The level moves enter as the adjoint
    of kinetic_rhs's flux balance, each charged its fine.  An agent at (i, j)
    switching to k = target[i, j] gains g[i, k] - g[i, j] - fee_B[j, k]; a
    stay gains 0.
    """
    xa = None if x is None else occupation_array(x)
    switch = None if u is None else _target_gain(control_array(u, cfg.n, cfg.m), cfg)
    return _payoff_kernel(xa, switch, cfg)(payoff_array(g))


def optimal_control(g, cfg: GameConfig) -> np.ndarray:
    """Best response to a payoff matrix: switch only on a strictly positive gain.

    Returns the (n, m) integer target matrix: an agent at (i, j) moves to
    behaviour target[i, j], and target[i, j] == j means stay.  Gains within
    1e-12 of zero keep the agent in place; among tied positive gains the
    lowest target index wins (deterministic).
    """
    return _best_targets(switch_gains(payoff_array(g), cfg))


def consistency_margin(g, x, cfg: GameConfig) -> float:
    """Largest switch gain available anywhere the population actually sits.

    Nonpositive means no occupied state profits from deviating.  With a single
    behaviour level there is nothing to deviate to: returns -inf.
    """
    occupied = occupation_array(x) > OCCUPIED_TOL
    if not occupied.any():
        return float("-inf")
    return float(switch_gains(payoff_array(g), cfg)[occupied].max())


def integrate_backward(
    gT,
    occupation,
    t0: float,
    t1: float,
    dt: float,
    cfg: GameConfig,
    mode: str = "fixed",
    control=None,
) -> Trajectory:
    """Integrate the payoff equation from g(t1)=gT back to t0 (RK4, reversed time).

    The grid is step_grid(t0, t1, dt), the forward integrator's grid.
    occupation: None (only without stimulated moves), one (n, m) matrix, or
    a node path of shape (n_steps + 1, n, m) such as a forward Trajectory.x;
    each step then sees the mean of its two end nodes.
    mode "fixed": control is used as is, in integrate_forward's forms (None =
    nobody switches, one Control/(n, m) target matrix, or a per-step stack);
    mode "optimizing": the best response to the current g is recomputed at
    every stage evaluation, from one switch_gains call whose row maximum is
    the switch term.  Each reversed step computes its per-capita rates once.
    Returns a Trajectory with g at the nodes and, in optimizing mode, the
    per-step targets u[k] = best response to g(times[k]), shape
    (n_steps, n, m): a reversed step's first stage sits on its starting
    node, so its gains give the target and only t0 needs a call of its own.
    """
    if mode not in ("fixed", "optimizing"):
        raise ValueError(f"unknown mode {mode!r}")
    optimizing = mode == "optimizing"
    n_steps, h = step_grid(t0, t1, dt)
    x_nodes = None if occupation is None else occupation_array(occupation)
    on_path = x_nodes is not None and x_nodes.ndim == 3
    if on_path and len(x_nodes) != n_steps + 1:
        raise ValueError(f"occupation path of shape {x_nodes.shape} does not match the "
                         f"grid's {n_steps + 1} nodes")
    u_steps = None if optimizing else control_steps(control, n_steps, cfg)
    times = t0 + h * np.arange(n_steps + 1)

    # Step k runs from node k+1 down to node k: an RK4 step of dg/dt with step -h.
    g = payoff_array(gT)
    gs = np.empty((n_steps + 1,) + g.shape)
    gs[n_steps] = g
    us = np.empty((n_steps, cfg.n, cfg.m), dtype=int) if optimizing else None
    for k in reversed(range(n_steps)):
        x_mid = 0.5 * (x_nodes[k] + x_nodes[k + 1]) if on_path else x_nodes
        if optimizing:
            stages = []

            def switch(y):
                gains = switch_gains(y, cfg)
                best = gains.max(axis=-1)
                stages.append(gains)
                return np.where(best > SWITCH_TOL, best, 0.0)
        else:
            switch = None if u_steps[k] is None else _target_gain(u_steps[k], cfg)
        g = rk4_step(_payoff_kernel(x_mid, switch, cfg), g, -h)
        if not np.all(np.isfinite(g)):
            raise HjbError(
                f"non-finite payoff at t={times[k]:.6g}; reduce dt (dt={h:.3g})"
            )
        gs[k] = g
        if optimizing and k + 1 < n_steps:
            us[k + 1] = _best_targets(stages[0])
    if optimizing:
        us[0] = optimal_control(gs[0], cfg)
    return Trajectory(times=times, g=gs, u=us, meta={"dt": h, "mode": mode})
