"""Forward population dynamics.

The occupation matrix x(t) evolves under three flows: principal pressure
(level moves at configured rates), stimulating binary interactions (the same
moves pushed by same-level partners, quadratic in x, scaled by delta_int)
and the agents' own behaviour switches (rate lam, to the behaviour the
control's target matrix names).  The level moves of both variants, step-down
and sink, come from the config's move table, GameConfig.moves.  Every flow
moves mass along one axis at a time, so the total mass (and, absent
switching, each behaviour column's mass) is conserved.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .model import GameConfig, control_array, occupation_array

__all__ = [
    "Trajectory",
    "KineticsError",
    "kinetic_rhs",
    "integrate_forward",
    "stationary_residual",
    "rk4_step",
    "as_provider",
]

log = logging.getLogger(__name__)

# A stored sample is re-projected to the simplex only past this drift.
DRIFT_TOL = 1e-12


class KineticsError(RuntimeError):
    pass


@dataclass
class Trajectory:
    """Uniform-grid samples of a run: times plus any of x, g, u.

    x and g are sampled at the grid nodes, shape (len(times), n, m).
    u, when present, is per cell: target matrices of shape (len(times)-1, n, m),
    constant on [times[k], times[k+1]).
    """

    times: np.ndarray
    x: Optional[np.ndarray] = None
    g: Optional[np.ndarray] = None
    u: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def check(self):
        t = np.asarray(self.times)
        if t.ndim != 1 or t.size < 1 or np.any(np.diff(t) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        for name in ("x", "g"):
            a = getattr(self, name)
            if a is not None and len(a) != t.size:
                raise ValueError(f"trajectory {name} not aligned with times")
        if self.u is not None and len(self.u) not in (t.size, t.size - 1):
            raise ValueError("trajectory u not aligned with times")
        return self


def _decision_flow(x: np.ndarray, target: Optional[np.ndarray], lam: float) -> np.ndarray:
    # every agent at (i, j) moves to (i, target[i, j]); a stay lands where it left
    if target is None or lam == 0.0:
        return 0.0
    n, m = x.shape
    cells = (target + m * np.arange(n)[:, None]).ravel()
    return lam * (np.bincount(cells, x.ravel(), n * m).reshape(n, m) - x)


def kinetic_rhs(x, u, cfg: GameConfig) -> np.ndarray:
    """Time derivative of the occupation matrix, for either variant.

    u may be a Control, an (n, m) integer target matrix (target[i, j] == j
    means stay), or None for "nobody switches"; any other shape is a
    ValueError.  The level moves are the flux balance of cfg.moves.
    """
    xa = occupation_array(x)
    ua = None if u is None else control_array(u, cfg.n, cfg.m)
    mv = cfg.moves
    flux = mv.per_capita(xa) * xa
    out = mv.net @ flux.reshape(-1, cfg.m)
    out += _decision_flow(xa, ua, cfg.lam)
    return out


def rk4_step(f: Callable[[np.ndarray], np.ndarray], y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def as_provider(value, convert: Callable):
    """t -> convert(value(t)) for a callable, else t -> value converted once (None kept)."""
    if callable(value) and not isinstance(value, np.ndarray):
        return lambda t: convert(value(t))
    fixed = None if value is None else convert(value)
    return lambda t: fixed


def integrate_forward(
    x0,
    control,
    t0: float,
    t1: float,
    dt: float,
    cfg: GameConfig,
) -> Trajectory:
    """Fixed-step RK4 on the kinetic equation from t0 to t1.

    control: None, a Control/(n, m) target matrix held fixed, or a callable
    t -> control, sampled once per step at the step midpoint (piecewise-
    constant providers resolve to their cell value).  Stored samples drift from the simplex by
    at most rounding; any sample beyond 1e-12 is clamped/renormalized and the
    event is counted in meta and logged.
    """
    if not (t1 > t0):
        raise ValueError("need t1 > t0")
    if not (0 < dt <= t1 - t0):
        raise ValueError("need 0 < dt <= t1 - t0")
    n_steps = max(1, int(round((t1 - t0) / dt)))
    h = (t1 - t0) / n_steps
    u_of = as_provider(control, lambda u: control_array(u, cfg.n, cfg.m))

    x = occupation_array(x0).copy()
    times = [t0]
    samples = [x.copy()]
    drift_max = 0.0
    projections = 0
    for k in range(n_steps):
        t = t0 + k * h
        u_mid = u_of(t + 0.5 * h)
        x = rk4_step(lambda y: kinetic_rhs(y, u_mid, cfg), x, h)
        if not np.all(np.isfinite(x)):
            raise KineticsError(
                f"non-finite occupation at t={t + h:.6g}; reduce dt (dt={h:.3g})"
            )
        drift = max(abs(float(x.sum()) - 1.0), max(0.0, -float(x.min())))
        drift_max = max(drift_max, drift)
        if drift > DRIFT_TOL:
            x = np.clip(x, 0.0, None)
            x /= x.sum()
            projections += 1
        times.append(t0 + (k + 1) * h)
        samples.append(x.copy())
    if projections:
        log.warning(
            "re-projected %d/%d samples to the simplex (max drift %.3e)",
            projections, n_steps, drift_max,
        )
    meta = {"dt": h, "drift_max": drift_max, "projections": projections}
    return Trajectory(times=np.array(times), x=np.array(samples), meta=meta).check()


def stationary_residual(x, cfg: GameConfig) -> float:
    """Sup-norm of the switch-free stationary balance at x.

    Zero exactly when pressure and interaction flows cancel in every state.
    """
    return float(np.abs(kinetic_rhs(x, None, cfg)).max())
