"""Forward population dynamics.

The occupation matrix x(t) evolves under three flows: principal pressure
(level moves at configured rates), stimulating binary interactions (the same
moves pushed by same-level partners, quadratic in x, scaled by delta_int)
and the agents' own behaviour switches (rate lam, to the behaviour the
control's target matrix names).  The level moves of both variants, step-down
and sink, come from the config's move table, GameConfig.moves.  Every flow
moves mass along one axis at a time, so the total mass (and, absent
switching, each behaviour column's mass) is conserved.  The forward
integrator stops stepping once a step returns its input bit for bit, and
fills the rest of that control piece with the fixed point.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .model import Control, GameConfig, check_targets, control_array, occupation_array

__all__ = [
    "Trajectory",
    "KineticsError",
    "kinetic_rhs",
    "integrate_forward",
    "rk4_step",
    "step_grid",
    "control_steps",
    "control_changes",
]

log = logging.getLogger(__name__)

# A stored sample is re-projected to the simplex only past this drift.
DRIFT_TOL = 1e-12


class KineticsError(RuntimeError):
    pass


@dataclass
class Trajectory:
    """Samples of a run on one uniform grid: times plus any of x, g, u.

    times are the nodes t0 + h * arange(n_steps + 1) of step_grid's grid.
    x and g are sampled at the nodes, shape (n_steps + 1, n, m).  u, when
    present, is per step: target matrices of shape (n_steps, n, m), u[k]
    held on [times[k], times[k+1]).
    """

    times: np.ndarray
    x: Optional[np.ndarray] = None
    g: Optional[np.ndarray] = None
    u: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)


def step_grid(t0: float, t1: float, dt: float) -> tuple[int, float]:
    """The uniform grid of [t0, t1] with step nearest dt: (n_steps, h)."""
    if not np.all(np.isfinite([t0, t1, dt])):
        raise ValueError("need finite t0, t1 and dt")
    if not (t1 > t0):
        raise ValueError("need t1 > t0")
    if not (0 < dt <= t1 - t0):
        raise ValueError("need 0 < dt <= t1 - t0")
    n_steps = max(1, int(round((t1 - t0) / dt)))
    return n_steps, (t1 - t0) / n_steps


def control_steps(control, n_steps: int, cfg: GameConfig):
    """One control per step, indexable by step; the integrators' and the
    simulator's only control forms, each checked once by Control's rule.

    control: None (nobody switches), one Control/(n, m) target matrix held
    on every step, or a per-step stack of shape (n_steps, n, m), which
    model.check_targets checks in one pass.  A time-varying control is its
    stack, sampled by the caller wherever it wants.
    """
    if control is None or isinstance(control, Control) or np.ndim(control) == 2:
        return [None if control is None else control_array(control, cfg.n, cfg.m)] * n_steps
    stack = np.asarray(control)
    if stack.shape != (n_steps, cfg.n, cfg.m):
        raise ValueError(f"control stack of shape {stack.shape} does not match the grid's "
                         f"{n_steps} steps of one ({cfg.n}, {cfg.m}) target matrix each")
    return check_targets(stack, cfg.m)


def control_changes(u_steps) -> np.ndarray:
    """Which steps of control_steps' result start a new control: True at step 0
    and wherever a stack differs from its previous step, in one comparison."""
    new = np.ones(len(u_steps), dtype=bool)
    new[1:] = (np.any(u_steps[1:] != u_steps[:-1], axis=(1, 2))
               if isinstance(u_steps, np.ndarray) else False)
    return new


def _kinetic_kernel(target: Optional[np.ndarray], cfg: GameConfig) -> Callable:
    """dx/dt as a function of x, agents at (i, j) moving to (i, target[i, j]) at
    rate lam; target None or all staying builds no scatter index."""
    mv, m, lam = cfg.moves, cfg.m, cfg.lam
    cells = None
    if target is not None and lam != 0.0 and (target != np.arange(m)).any():
        cells = (target + m * np.arange(cfg.n)[:, None]).ravel()

    def rhs(x):
        out = mv.net @ (mv.per_capita(x) * x).reshape(-1, m)
        if cells is not None:
            out += lam * (np.bincount(cells, x.ravel(), x.size).reshape(x.shape) - x)
        return out

    return rhs


def kinetic_rhs(x, u, cfg: GameConfig) -> np.ndarray:
    """Time derivative of the occupation matrix, for either variant.

    u may be a Control, an (n, m) integer target matrix (target[i, j] == j
    means stay), or None for "nobody switches"; any other shape is a
    ValueError.  The level moves are the flux balance of cfg.moves.
    """
    ua = None if u is None else control_array(u, cfg.n, cfg.m)
    return _kinetic_kernel(ua, cfg)(occupation_array(x))


def rk4_step(f: Callable[[np.ndarray], np.ndarray], y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_forward(
    x0,
    control,
    t0: float,
    t1: float,
    dt: float,
    cfg: GameConfig,
) -> Trajectory:
    """Fixed-step RK4 on the kinetic equation from t0 to t1.

    The grid is step_grid(t0, t1, dt).  control: None (nobody switches), one
    Control/(n, m) target matrix held fixed, or a per-step stack of shape
    (n_steps, n, m), step k using control[k].  The step kernel, with its
    control's scatter index, is built only where control_changes says the
    control changes, and one sum serves each step's non-finite and drift checks.
    Stored samples drift from the simplex by at most rounding; any sample
    beyond 1e-12 is clamped/renormalized and the event is counted in meta
    and logged.  A step whose output equals its input bit for bit has reached
    a fixed point of its control piece's step map: the rest of the piece is
    filled with it and not stepped (meta["fixed_steps"] counts the filled
    steps, and a projected fixed point counts as projected at each of them).
    """
    n_steps, h = step_grid(t0, t1, dt)
    u_steps = control_steps(control, n_steps, cfg)

    times = t0 + h * np.arange(n_steps + 1)
    x = occupation_array(x0)
    xs = np.empty((n_steps + 1,) + x.shape)
    xs[0] = x
    drift_max = 0.0
    projections = fixed_steps = 0
    starts = np.flatnonzero(control_changes(u_steps)).tolist() + [n_steps]
    for a, b in zip(starts[:-1], starts[1:]):  # one control piece: steps a .. b-1
        kernel = _kinetic_kernel(u_steps[a], cfg)
        for k in range(a, b):
            x_in, x = x, rk4_step(kernel, x, h)
            mass = float(x.sum())  # any inf or nan entry makes it non-finite
            if not math.isfinite(mass):
                raise KineticsError(
                    f"non-finite occupation at t={times[k + 1]:.6g}; reduce dt (dt={h:.3g})"
                )
            drift = max(abs(mass - 1.0), max(0.0, -float(x.min())))
            drift_max = max(drift_max, drift)
            projected = drift > DRIFT_TOL
            if projected:
                x = np.clip(x, 0.0, None)
                x /= x.sum()
                projections += 1
            xs[k + 1] = x
            # a step that returns its input bit for bit, in the same C layout,
            # returns it at every later step of the piece: fill them
            if (x_in.flags.c_contiguous and x.flags.c_contiguous
                    and x.tobytes() == x_in.tobytes()):
                xs[k + 2:b + 1] = x
                fixed_steps += b - k - 1
                projections += projected * (b - k - 1)
                break
    if projections:
        log.warning(
            "re-projected %d/%d samples to the simplex (max drift %.3e)",
            projections, n_steps, drift_max,
        )
    meta = {"dt": h, "drift_max": drift_max, "projections": projections,
            "fixed_steps": fixed_steps}
    return Trajectory(times=times, x=xs, meta=meta)
