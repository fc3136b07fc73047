"""Forward population dynamics.

The occupation matrix x(t) evolves under three flows: principal pressure
(level moves at configured rates), stimulating binary interactions (the same
moves pushed by same-level partners, quadratic in x, scaled by delta_int)
and the agents' own behaviour switches (rate lam, to GameConfig.switch_cells
of the control's target matrix).  The level moves of both variants, step-down
and sink, come from the config's move table, GameConfig.moves.  Every flow
moves mass along one axis at a time, so the total mass (and, absent
switching, each behaviour column's mass) is conserved.  The control is a
model.Control, piecewise constant on the step grid; one target matrix is a
one-piece control.  The forward integrator steps runs of up to RUN_STEPS
steps and checks each run at once; it stops stepping once a step returns
its input bit for bit, and fills the rest of that control piece with the
fixed point.  Every stage scales by 0-d float64 arrays (rk4_scalars), and
rk4_step is the RK4 step of hjb's payoff pass too.  step_grid refuses a
grid whose node array would pass NODE_BYTES, before allocation.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .model import Control, GameConfig, control_pieces, occupation_array

__all__ = [
    "Trajectory",
    "KineticsError",
    "kinetic_rhs",
    "integrate_forward",
    "rk4_step",
    "step_grid",
]

log = logging.getLogger(__name__)

# A stored sample is re-projected to the simplex only past this drift.
DRIFT_TOL = 1e-12
# The most steps a grid may have: each step costs tens of microseconds of
# Python-level work.
MAX_STEPS = 10**8
# The most bytes one node array may take: rows of n * m 8-byte values, one a
# node, so a grid's (n_steps + 1, n, m) path, or a simulation's counts.
NODE_BYTES = 1 << 30
# The forward pass's longest run of steps checked at once.
RUN_STEPS = 64


class KineticsError(RuntimeError):
    pass


@dataclass
class Trajectory:
    """Samples of a run on one uniform grid: times plus any of x, g, u.

    times are the nodes t0 + h * arange(n_steps + 1) of step_grid's grid.
    x and g are sampled at the nodes, shape (n_steps + 1, n, m).  u, when
    present, is the model.Control held on the n_steps steps.
    """

    times: np.ndarray
    x: Optional[np.ndarray] = None
    g: Optional[np.ndarray] = None
    u: Optional[Control] = None
    meta: dict = field(default_factory=dict)


def step_grid(t0: float, t1: float, dt: float, cells: int) -> tuple[int, float]:
    """The uniform grid of [t0, t1] with step nearest dt: (n_steps, h); a count
    past MAX_STEPS, or one that overflows, is refused before any allocation,
    and so is a node array of n_steps + 1 nodes of `cells` values past NODE_BYTES."""
    if not np.all(np.isfinite([t0, t1, dt])):
        raise ValueError("need finite t0, t1 and dt")
    if not (t1 > t0):
        raise ValueError("need t1 > t0")
    if not (0 < dt <= t1 - t0):
        raise ValueError("need 0 < dt <= t1 - t0")
    count = (t1 - t0) / dt
    if not count <= MAX_STEPS:   # inf when the span or the quotient overflows
        raise ValueError(f"a grid of {count:.6g} steps exceeds the bound of {MAX_STEPS} steps")
    n_steps = max(1, int(round(count)))
    check_nodes(n_steps + 1, cells)
    return n_steps, (t1 - t0) / n_steps


def check_nodes(rows: int, cells: int, what: str = "a node array",
                budget: int = NODE_BYTES) -> None:
    """Refuse rows x cells 8-byte values past budget (NODE_BYTES, or what
    the caller leaves of it), before they are allocated: a grid's node
    array, or what the refusal names."""
    size = 8 * rows * cells
    if size > budget:
        raise ValueError(f"{what} of {rows} x {cells} values takes {size} bytes, "
                         f"past the budget of {budget} bytes")


def _kinetic_kernel(target: Optional[np.ndarray], cfg: GameConfig) -> Callable:
    """dx/dt as a function of x, agents moving to cfg.switch_cells(target) at
    rate lam; target None or all staying builds no scatter index.  The
    per-capita rates go into a scratch buffer, the flux and switch term are
    formed in place, and each call returns a new array."""
    mv, m, lam = cfg.moves, cfg.m, np.array(cfg.lam)
    cells = None
    if target is not None and cfg.lam != 0.0 and (target != np.arange(m)).any():
        cells = cfg.switch_cells(target).ravel()
    rate = np.empty(mv.rate.shape)

    def rhs(x):
        flux = mv.per_capita(x, out=rate)
        flux *= x
        out = mv.net @ flux.reshape(-1, m)
        if cells is not None:
            switch = np.bincount(cells, x.ravel(), x.size).reshape(x.shape)
            switch -= x
            switch *= lam
            out += switch
        return out

    return rhs


def kinetic_rhs(x, u, cfg: GameConfig) -> np.ndarray:
    """Time derivative of the occupation matrix, for either variant.

    u may be an (n, m) integer target matrix (target[i, j] == j means stay),
    a one-step Control, or None for "nobody switches"; whatever Control
    refuses is a ValueError.  The level moves are the flux balance of cfg.moves.
    """
    x = occupation_array(x, (cfg.n, cfg.m))
    return _kinetic_kernel(control_pieces(u, 1, cfg.n, cfg.m)[0][2], cfg)(x)


def rk4_scalars(h: float) -> tuple:
    """RK4's stage scalars 0.5 * h, h, h / 6 and 2.0 as float64 0-d arrays.

    numpy scales an array by a 0-d array with the bits it gives for the
    float, in fewer steps: a Python float goes through scalar promotion on
    every call.  A loop of steps builds them once.
    """
    return tuple(np.array(v) for v in (0.5 * h, h, h / 6.0, 2.0))


def rk4_step(f: Callable[[np.ndarray], np.ndarray], y: np.ndarray, h,
             out: Optional[np.ndarray] = None, stages: tuple = (None, None, None)) -> np.ndarray:
    """One classical RK4 step of dy/dt = f(y) from y, with step h, into out
    when given: y + h / 6 * (k1 + 2 k2 + 2 k3 + k4), bit for bit.

    h is the step, or its rk4_scalars(h).  stages are three arrays that
    receive the stage inputs y + h/2 k1, y + h/2 k2 and y + h k3, or None
    each; like out, they change where the step writes, not its bits.  The
    stage inputs and the weighted sum of the slopes are formed in place;
    IEEE + and * commute, so each rounds as the expression does.  f must
    return a new array.
    """
    half, step, sixth, two = h if isinstance(h, tuple) else rk4_scalars(h)
    a, b, c = stages
    k1 = f(y)
    k2 = f(np.add(np.multiply(k1, half, out=a), y, out=a))
    k3 = f(np.add(np.multiply(k2, half, out=b), y, out=b))
    k4 = f(np.add(np.multiply(k3, step, out=c), y, out=c))
    k2 *= two
    k2 += k1
    k3 *= two
    k2 += k3
    k2 += k4
    k2 *= sixth
    return np.add(y, k2, out=out)


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
    (n, m) target matrix held fixed, or a model.Control of the grid's n_steps
    steps.  The step kernel, with its control's scatter index, is built once
    per control piece.
    Stored samples drift from the simplex by at most rounding; any sample
    beyond 1e-12 is clamped/renormalized and the event is counted in meta
    and logged.  A step whose output equals its input bit for bit has reached
    a fixed point of its control piece's step map: the rest of the piece is
    filled with it and not stepped (meta["fixed_steps"] counts the filled
    steps, and a projected fixed point counts as projected at each of them).
    A sample whose sum is not finite raises KineticsError; a grid that
    step_grid refuses (past NODE_BYTES, say) raises ValueError.

    The steps go in runs of 1, 2, 4, ... up to RUN_STEPS steps within a
    piece, each rk4_step written straight into the node array; then one
    row sum and one row minimum over the run serve every step's checks at
    once (the same bits as each step's x.sum() and x.min()).  At the first
    step that is not finite, drifts past 1e-12 or returns its input, the
    per-step rule above takes over: it raises, projects the step and resumes
    from it, or fills the piece.  The steps computed past that one are
    discarded.  A run stops at a step that meets a floating-point error the
    caller does not ignore, and that step is rerun outside the run, so the
    caller sees exactly the warnings of a step-by-step pass.
    """
    n, m = cfg.n, cfg.m
    n_steps, h = step_grid(t0, t1, dt, n * m)
    pieces = control_pieces(control, n_steps, n, m)

    times = t0 + h * np.arange(n_steps + 1)
    xs = np.empty((n_steps + 1, n, m))
    xs[0] = occupation_array(x0, (n, m))
    rows = xs.reshape(n_steps + 1, n * m)
    bits = rows.view(np.int64)
    scalars = rk4_scalars(h)
    errors = []   # the floating-point errors the caller would see, met inside a run
    caught = {kind: "ignore" if mode == "ignore" else "call"
              for kind, mode in np.geterr().items()}

    def record(kind, flag):
        errors.append(kind)

    drift_max = 0.0
    projections = fixed_steps = 0
    for a, b, target in pieces:  # one control piece: steps a .. b-1
        kernel = _kinetic_kernel(target, cfg)
        k, run = a, 1
        while k < b:
            end = min(k + run, b)   # steps k .. end-1, into nodes k+1 .. end
            with np.errstate(**caught, call=record):
                for j in range(k, end):
                    rk4_step(kernel, xs[j], scalars, out=xs[j + 1])
                    if errors:
                        end = j + 1
                        break
            if errors:   # rerun as a step-by-step pass would take it
                errors.clear()
                rk4_step(kernel, xs[end - 1], scalars, out=xs[end])
            with np.errstate(all="ignore"):   # the per-step rule below warns as it would
                block = rows[k + 1:end + 1]
                mass = block.sum(axis=1)
                drift = np.maximum(np.abs(mass - 1.0), -block.min(axis=1))
                plain = drift <= DRIFT_TOL   # False where the mass is not finite
                plain &= (bits[k + 1:end + 1] != bits[k:end]).any(axis=1)
            first = int(plain.argmin())   # the first step the per-step rule takes
            if plain[first]:
                first = end - k
            if first:
                drift_max = max(drift_max, float(drift[:first].max()))
            if k + first == end:
                k, run = end, min(2 * run, RUN_STEPS)
                continue
            # the per-step rule at step j = k + first
            j = k + first
            x = xs[j + 1]
            mass = float(x.sum())
            if not math.isfinite(mass):
                raise KineticsError(
                    f"non-finite occupation at t={times[j + 1]:.6g}; reduce dt (dt={h:.3g})"
                )
            drift = max(abs(mass - 1.0), max(0.0, -float(x.min())))
            drift_max = max(drift_max, drift)
            projected = drift > DRIFT_TOL
            if projected:
                np.clip(x, 0.0, None, out=x)
                x /= x.sum()
                projections += 1
            k, run = j + 1, 1
            # a step that returns its input bit for bit returns it at every
            # later step of the piece: fill them
            if x.tobytes() == xs[j].tobytes():
                xs[j + 2:b + 1] = x
                fixed_steps += b - j - 1
                projections += projected * (b - j - 1)
                break
    if projections:
        log.warning(
            "re-projected %d/%d samples to the simplex (max drift %.3e)",
            projections, n_steps, drift_max,
        )
    meta = {"dt": h, "drift_max": drift_max, "projections": projections,
            "fixed_steps": fixed_steps}
    return Trajectory(times=times, x=xs, meta=meta)
