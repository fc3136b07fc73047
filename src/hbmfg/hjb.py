"""Backward payoff dynamics and best-response control.

g[i, j] is the discounted payoff of sitting at state (i, j).  Running the
dynamic-programming equation backward from a terminal payoff, an agent's only
lever is the behaviour switch: the gain of moving (i,j) -> (i,k) is
g[i,k] - g[i,j] - fee_B[j,k], and staying put is always available.  Pressure
moves and stimulated moves (weighted by the current occupation) act on the
agent regardless, with the downgrade fine charged on every enforced drop.
Both variants' level moves, step-down and sink, come from GameConfig.moves:
the payoff flow is the adjoint of the forward flow.  Without the switch term
it is affine in g, and integrate_backward builds that map for a block of
steps at a time.  Inside the no-switch cone, where the payoff spread less
the smallest switch fee bounds every gain by SWITCH_TOL, an optimizing
stage is that map alone: the switch term is exactly zero and is skipped.
"""
from __future__ import annotations

import numpy as np

from .kinetics import Trajectory, rk4_step, step_grid
from .model import (ControlPath, GameConfig, control_array, control_pieces, occupation_array,
                    payoff_array)

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
# Per-step payoff operators, with the arrays that assemble them, and the node
# pass's switch gains are built a block at a time in about this many bytes.
BLOCK_BYTES = 1 << 17
# Profitable switches the node pass lists before truncation (all are counted).
VIOLATION_CAP = 1000


class HjbError(RuntimeError):
    pass


def switch_gains(g: np.ndarray, cfg: GameConfig) -> np.ndarray:
    """gains[..., i, j, k] = g[..., i, k] - g[..., i, j] - fee_B[j, k], the net
    value of switching j -> k, for one payoff matrix or a stack of them.

    Staying (k == j) is no switch and gains -inf, so a maximum over k is the
    best switch, and -inf when there is none (m == 1).
    """
    return g[..., None, :] - g[..., :, None] - cfg.switch_fee


def _best_targets(gains: np.ndarray, best: np.ndarray) -> np.ndarray:
    # first maximum = lowest k on exact ties; within SWITCH_TOL of zero, stay
    return np.where(best > SWITCH_TOL, np.argmax(gains, axis=-1), np.arange(gains.shape[-1]))


def _payoff_operators(x, cfg: GameConfig):
    """The switch-free payoff flow at each occupation of a stack x (B, n, m)
    as an affine map of the payoff by behaviour column, G = g.T[:, :, None]
    of shape (m, n, 1): dG/dt = M[b] @ G + c[b].

    Level moves keep the behaviour, so the map on the flattened state is
    block diagonal: M[b] (m, n, n) holds column j's block, the discount plus
    the level moves' adjoint, assembled by one bincount; c[b] (m, n, 1) is
    -w plus the expected fines.  x None (only without stimulated moves)
    gives one map, B = 1.
    """
    mv, n, m = cfg.moves, cfg.n, cfg.m
    if x is None and mv.evo.any():
        raise HjbError("occupation required when the config has stimulated moves")
    rate = mv.per_capita(x).reshape(-1, len(mv.rate), n, m)
    B = len(rate)
    # M[b, j, i, i] for each (i, j), then M[b, j, i, dest[f, i]] for each (f, i, j)
    lv, col = np.arange(n)[:, None], n * n * np.arange(m)
    cells = np.concatenate([(col + lv * (n + 1)).ravel(),
                            (col + lv * n + mv.dest[:, :, None]).ravel()])
    weights = np.concatenate([(cfg.delta_dis + rate.sum(axis=1)).reshape(B, -1),
                              -rate.reshape(B, -1)], axis=1)
    M = np.bincount((m * n * n * np.arange(B)[:, None] + cells).ravel(), weights.ravel(),
                    B * m * n * n)
    c = (rate * mv.fine[:, :, None]).sum(axis=1) - cfg.w
    return M.reshape(B, m, n, n), c.transpose(0, 2, 1)[..., None]


def _block_steps(cfg: GameConfig) -> int:
    # a step's operator holds n values per state; its rates, weights and
    # bincount indices about 12 more
    return max(1, BLOCK_BYTES // (8 * cfg.n * cfg.m * (cfg.n + 12)))


def _payoff_stage(M, c, switch, lam: float):
    """dG/dt of the payoff by column: M @ G + c, less lam times switch(G), the
    gain net of the fee that each state takes (None: nobody switches)."""
    if switch is None:
        return lambda y: M @ y + c
    return lambda y: M @ y + c - lam * switch(y)


def _optimizing_stage(M, c, gain, lam: float, fee_min: float, skipped: list):
    """_payoff_stage with the best switch gain, skipped while the stage
    input's payoff spread less fee_min, the smallest switch fee, is at most
    SWITCH_TOL.  IEEE subtraction is monotone in each argument, so every gain
    is then at most that bound, the switch term is exactly zero, and
    M @ G + c is the stage, bit for bit (for a finite nonnegative lam, since
    v - 0.0 == v for every v; fee_min nan never skips).  Once a stage fails
    the bound the rest of the step takes the full maximum; skipped[0] counts
    the stages that skipped."""
    inside = True

    def stage(y):
        nonlocal inside
        if inside:
            if float(y.max()) - float(y.min()) - fee_min <= SWITCH_TOL:
                skipped[0] += 1
                return M @ y + c
            inside = False
        return M @ y + c - lam * gain(y)

    return stage


def _target_gain(target: np.ndarray, cfg: GameConfig):
    cells = (target * cfg.n + np.arange(cfg.n)[:, None]).T[:, :, None]
    fee = cfg.fee_B[np.arange(cfg.m), target].T[:, :, None]
    return lambda y: np.take(y, cells) - y - fee


def _best_gain(cfg: GameConfig):
    # switch_gains on the flattened columns, target first: gains[k, j*n + i]
    # is the gain of (i, j) -> (i, k), so the best switch is a column maximum
    n, m = cfg.n, cfg.m
    to = n * np.arange(m)[:, None] + np.arange(n * m) % n
    fee = np.repeat(cfg.switch_fee.T, n, axis=1)

    def gain(y):
        flat = y.reshape(-1)
        best = (flat[to] - flat - fee).max(axis=0).reshape(y.shape)
        return np.where(best > SWITCH_TOL, best, 0.0)

    return gain


def _by_column(g) -> np.ndarray:
    return np.ascontiguousarray(payoff_array(g).T)[:, :, None]


def hjb_rhs(g, x, u, cfg: GameConfig) -> np.ndarray:
    """Backward-time derivative dg/dt under a supplied control.

    u as in kinetic_rhs: a Control, an (n, m) target matrix or None (nobody
    switches).  x feeds the stimulated move coefficients; it may be None when
    the config has no stimulated moves.  The level moves enter as the adjoint
    of kinetic_rhs's flux balance, each charged its fine.  An agent at (i, j)
    switching to k = target[i, j] gains g[i, k] - g[i, j] - fee_B[j, k]; a
    stay gains 0.  This is integrate_backward's stage on a one-step block.
    """
    M, c = _payoff_operators(None if x is None else occupation_array(x)[None], cfg)
    switch = None if u is None else _target_gain(control_array(u, cfg.n, cfg.m), cfg)
    dg = _payoff_stage(M[0], c[0], switch, cfg.lam)(_by_column(g))
    return np.ascontiguousarray(dg[..., 0].T)


def optimal_control(g, cfg: GameConfig) -> np.ndarray:
    """Best response to a payoff matrix: switch only on a strictly positive gain.

    Returns the (n, m) integer target matrix: an agent at (i, j) moves to
    behaviour target[i, j], and target[i, j] == j means stay.  Gains within
    1e-12 of zero keep the agent in place; among tied positive gains the
    lowest target index wins (deterministic).
    """
    gains = switch_gains(payoff_array(g), cfg)
    return _best_targets(gains, gains.max(axis=-1))


def _node_pass(times: np.ndarray, gs: np.ndarray, cfg: GameConfig):
    """Best response at every node of a payoff path, and its profitable switches.

    Runs over the path in blocks of nodes whose gains, about m + 4 values
    per state with the maxima, targets and hits, fit in BLOCK_BYTES.
    Returns u, with u[k] = optimal_control(gs[k]), and the cone scan:
    cone_worst, the largest switch gain on the path (-inf when m == 1);
    violations, the number of (node, level, from, to) switches with a
    positive gain; violations_head, the first VIOLATION_CAP of them as
    (t, level, from, to, gain).
    """
    n, m = cfg.n, cfg.m
    size = max(1, BLOCK_BYTES // (8 * n * m * (m + 4)))
    us = np.empty(gs.shape, dtype=np.min_scalar_type(m - 1))   # targets lie in [0, m)
    worst, count, head = float("-inf"), 0, []
    for lo in range(0, len(gs), size):
        gains = switch_gains(gs[lo:lo + size], cfg)
        best = gains.max(axis=-1)
        us[lo:lo + size] = _best_targets(gains, best)
        top = float(best.max())
        worst = max(worst, top)
        if top > 0.0:
            hits = gains > 0.0
            count += int(np.count_nonzero(hits))
            first = np.flatnonzero(hits)[:VIOLATION_CAP - len(head)]
            for k, i, a, b in zip(*(v.tolist() for v in np.unravel_index(first, hits.shape))):
                head.append((float(times[lo + k]), i, a, b, float(gains[k, i, a, b])))
    return us, {"cone_worst": worst, "violations": count, "violations_head": head}


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
    mode "fixed": control is used as is, in integrate_forward's forms (None,
    one Control/(n, m) target matrix or a ControlPath), one gain per piece;
    mode "optimizing": every stage takes the best switch at the current g,
    the maximum of switch_gains over the target, without storing the gains;
    a stage inside the no-switch cone skips it (_optimizing_stage), and
    meta["cone_stages"] counts those stages.
    Each step's switch-free flow is hjb_rhs's affine map of the payoff by
    behaviour column, assembled for a block of steps at a time within
    BLOCK_BYTES (once for a fixed occupation).  Finiteness is checked once
    per block and reported at the first step, in reversed time, that failed.
    Returns a Trajectory with g at the nodes.  In optimizing mode, one pass
    over the nodes adds u, the ControlPath that holds on step k the best
    response to g(times[k]), and meta's cone scan of the path: cone_worst,
    violations and violations_head, as _node_pass gives them.
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
    step_gain = []   # fixed mode: each step's switch gain, one built per piece
    for a, b, target in [] if optimizing else control_pieces(control, n_steps, cfg.n, cfg.m):
        step_gain += [None if target is None else _target_gain(target, cfg)] * (b - a)
    times = t0 + h * np.arange(n_steps + 1)

    # Step k runs from node k+1 down to node k: an RK4 step of dg/dt with step -h.
    n, m = cfg.n, cfg.m
    gs = np.empty((n_steps + 1, n, m))
    gs[n_steps] = gT
    g = _by_column(gT)
    best = _best_gain(cfg) if optimizing else None
    # a negative or infinite lam turns lam * 0.0 into -0.0 or nan: never skip
    fee_min = float(cfg.switch_fee.min()) if 0.0 <= cfg.lam < np.inf else np.nan
    skipped = [0]
    size = _block_steps(cfg)
    if not on_path:
        M, c = _payoff_operators(None if x_nodes is None else x_nodes[None], cfg)
    cols = np.empty((min(size, n_steps), m, n, 1))   # the block's nodes, by column
    for hi in range(n_steps, 0, -size):
        lo = max(0, hi - size)
        if on_path:
            M, c = _payoff_operators(0.5 * (x_nodes[lo:hi] + x_nodes[lo + 1:hi + 1]), cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(hi - 1, lo - 1, -1):
                j = k - lo if on_path else 0
                if optimizing:
                    stage = _optimizing_stage(M[j], c[j], best, cfg.lam, fee_min, skipped)
                else:
                    stage = _payoff_stage(M[j], c[j], step_gain[k], cfg.lam)
                g = cols[k - lo] = rk4_step(stage, g, -h)
        bad = np.flatnonzero(~np.isfinite(cols[:hi - lo]).all(axis=(1, 2, 3)))
        if bad.size:
            raise HjbError(f"non-finite payoff at t={times[lo + bad[-1]]:.6g}; "
                           f"reduce dt (dt={h:.3g})")
        gs[lo:hi] = cols[:hi - lo, :, :, 0].transpose(0, 2, 1)
    meta = {"dt": h, "mode": mode}
    if not optimizing:
        return Trajectory(times=times, g=gs, meta=meta)
    us, scan = _node_pass(times, gs, cfg)
    return Trajectory(times=times, g=gs, u=ControlPath.of_steps(us[:-1]),
                      meta={**meta, "cone_stages": skipped[0], **scan})
