"""Backward payoff dynamics and best-response control.

g[i, j] is the discounted payoff of sitting at state (i, j).  Running the
dynamic-programming equation backward from a terminal payoff, an agent's only
lever is the behaviour switch: the gain of moving (i,j) -> (i,k) is
g[i,k] - g[i,j] - fee_B[j,k], and staying put is always available.  Pressure
moves and stimulated moves (weighted by the current occupation) act on the
agent regardless, with the downgrade fine charged on every enforced drop.
Both variants' level moves come from GameConfig.moves: the payoff flow runs
the adjoint of Moves.generator, the level chain of the forward flow.  The
switch term plays a given model.Control, one gain per piece at the cells
GameConfig.switch_cells gives, or the best response, a Control.  Without it
the flow is affine in g, a map built for a block of steps at a time, or once
for a held run of occupation nodes equal in bits, which is stepped in long
blocks.  Inside the no-switch cone, where the payoff spread less the
smallest switch fee bounds every gain by SWITCH_TOL, the switch term is
exactly zero.  One rule uses that, per step: after a step whose four stage
inputs lay in the cone together, the next step is bare RK4 arithmetic, kept
when its own four inputs lie in the cone too.  After the sweep, one pass
over the nodes gives the best responses and the cone scan.  It first finds
the largest gain column pair by column pair; below 0, every target stays
and no gain tensor is built.
"""
from __future__ import annotations

import numpy as np

from .kinetics import Trajectory, rk4_step, step_grid  # noqa: F401  (rk4_step: a perfbench hook)
from .model import Control, GameConfig, control_pieces, occupation_array

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
# Per-step payoff operators, with the arrays that assemble them, a held run's
# nodes, and the node pass's switch gains and column-pair differences are
# built a block at a time in about this many bytes.
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

    Level moves keep the behaviour, so the map is block diagonal: column j's
    block M[b, j] = delta_dis * I - A.T is the discount less the adjoint of
    A = cfg.moves.generator of the column's per-capita rates, the level chain
    that kinetic_rhs runs forward.  c[b] (m, n, 1) is -w plus the expected
    fines.  x None (only without stimulated moves) gives one map, B = 1.
    """
    mv, n, m = cfg.moves, cfg.n, cfg.m
    if x is None and mv.evo.any():
        raise HjbError("occupation required when the config has stimulated moves")
    rate = mv.per_capita(x).reshape(-1, len(mv.rate), n, m)
    A = mv.generator(rate.transpose(0, 3, 1, 2))   # (B, m, n, n)
    # M in C order: matmul rounds a transposed layout differently
    M = np.subtract(cfg.delta_dis * np.eye(n), A.swapaxes(-1, -2), out=np.empty(A.shape))
    c = (rate * mv.fine[:, :, None]).sum(axis=1) - cfg.w
    return M, c.transpose(0, 2, 1)[..., None]


def _block_steps(cfg: GameConfig) -> int:
    # a step's generator and operator hold n values per state each; its
    # rates and constant about 8 more
    return max(1, BLOCK_BYTES // (8 * cfg.n * cfg.m * (2 * cfg.n + 8)))


def _operator_blocks(x_nodes, n_steps: int, run_size: int, cfg: GameConfig):
    """The payoff pass's blocks of steps, from n_steps down to 0, as (lo, hi,
    M, c): steps lo..hi-1 and their operators, one per step or one for all.

    A held run, _block_steps or more steps whose end nodes are all equal in
    bits (the forward fill, a fixed occupation; the whole path when x_nodes
    is None), shares one operator, built from 0.5 * (v + v) as each of its
    steps' mean nodes is, and goes in blocks of run_size steps.  The steps
    between held runs go in blocks of _block_steps, one operator per step.
    """
    size = _block_steps(cfg)
    if x_nodes is None:
        runs = [(0, n_steps)]
    else:
        bits = x_nodes.view(np.int64)
        held = np.zeros(n_steps + 2, dtype=bool)   # held[k + 1]: step k's nodes are equal
        chunk = max(1, BLOCK_BYTES // (cfg.n * cfg.m))   # the compare's bools
        for lo in range(0, n_steps, chunk):
            hi = min(lo + chunk, n_steps)
            held[lo + 1:hi + 1] = (bits[lo + 1:hi + 1] == bits[lo:hi]).all(axis=(1, 2))
        edges = np.flatnonzero(held[1:] != held[:-1]).reshape(-1, 2).tolist()
        runs = [(a, b) for a, b in edges if b - a >= size]
    top = n_steps
    for a, b in reversed([(0, 0)] + runs):   # each held run [a, b) and the steps above it
        for hi in range(top, b, -size):
            lo = max(b, hi - size)
            mean = 0.5 * (x_nodes[lo:hi] + x_nodes[lo + 1:hi + 1])
            yield (lo, hi, *_payoff_operators(mean, cfg))
        if a < b:
            v = None if x_nodes is None else x_nodes[b:b + 1]
            M, c = _payoff_operators(None if v is None else 0.5 * (v + v), cfg)
            for hi in range(b, a, -run_size):
                yield max(a, hi - run_size), hi, M, c
        top = a


def _payoff_step(M, c, h: float, gain, lam: float, ys, ks, out) -> None:
    """One RK4 step of dG/dt = M @ G + c - lam * gain(G) from G = ys[0], with
    step h, into out: rk4_step's arithmetic, bit for bit, on preallocated
    buffers, ys the four stage inputs and ks their slopes.  gain None:
    nobody switches.
    """
    g = ys[0]
    for s in range(4):
        y = ys[s]
        if s:
            np.multiply(ks[s - 1], h if s == 3 else 0.5 * h, out=y)
            y += g
        k = np.matmul(M, y, out=ks[s])
        k += c
        if gain is not None:
            k -= lam * gain(y)
    k1, k2, k3, k4 = ks
    np.multiply(k2, 2.0, out=out)
    out += k1
    k3 *= 2.0
    out += k3
    out += k4
    out *= h / 6.0
    out += g


def _target_gain(target: np.ndarray, cfg: GameConfig):
    i, k = np.divmod(cfg.switch_cells(target), cfg.m)   # by column, G's flat k * n + i
    cells = (k * cfg.n + i).T[:, :, None]
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
    return np.ascontiguousarray(np.asarray(g, dtype=float).T)[:, :, None]


def hjb_rhs(g, x, u, cfg: GameConfig) -> np.ndarray:
    """Backward-time derivative dg/dt under a supplied control.

    u as in kinetic_rhs: an (n, m) target matrix, a one-step Control or None
    (nobody switches).  x feeds the stimulated move coefficients; it may be
    None when the config has no stimulated moves.  The level moves enter as
    the adjoint of kinetic_rhs's flux balance, each charged its fine.  An
    agent at (i, j) switching to k = target[i, j] gains g[i, k] - g[i, j] -
    fee_B[j, k]; a stay gains 0.  This is integrate_backward's stage on a
    one-step block.
    """
    x = None if x is None else occupation_array(x, (cfg.n, cfg.m))[None]
    M, c = _payoff_operators(x, cfg)
    target = control_pieces(u, 1, cfg.n, cfg.m)[0][2]
    G = _by_column(g)
    dg = M[0] @ G + c[0]
    if target is not None:
        dg -= cfg.lam * _target_gain(target, cfg)(G)
    return np.ascontiguousarray(dg[..., 0].T)


def optimal_control(g, cfg: GameConfig) -> np.ndarray:
    """Best response to a payoff matrix: switch only on a strictly positive gain.

    Returns the (n, m) integer target matrix: an agent at (i, j) moves to
    behaviour target[i, j], and target[i, j] == j means stay.  Gains within
    1e-12 of zero keep the agent in place; among tied positive gains the
    lowest target index wins (deterministic).
    """
    gains = switch_gains(np.asarray(g, dtype=float), cfg)
    return _best_targets(gains, gains.max(axis=-1))


def _cone_worst(gs: np.ndarray, cfg: GameConfig) -> float:
    """The largest switch gain on a payoff path, a column pair at a time: for
    each (from j, to k), the largest g[..., k] - g[..., j] over nodes and
    levels, less switch_fee[j, k]; then the largest over pairs (-inf when
    m == 1).  x -> fl(x - fee) is monotone, so this is the largest entry of
    switch_gains over the path, bit for bit, up to the sign of a zero.
    """
    m = cfg.m
    rows = gs.reshape(-1, m)
    size = max(1, BLOCK_BYTES // (16 * m))   # the block's columns and one difference
    spread = np.full((m, m), -np.inf)   # spread[j, k]: the largest g[..., k] - g[..., j]
    cols, diff = np.empty((2, m, min(size, len(rows))))
    for lo in range(0, len(rows), size):
        block = rows[lo:lo + size]
        c, d = cols[:, :len(block)], diff[:, :len(block)]
        c[...] = block.T
        for j in range(m):
            np.maximum(spread[j], np.subtract(c, c[j], out=d).max(axis=1), out=spread[j])
    return float((spread - cfg.switch_fee).max())


def _node_pass(times: np.ndarray, gs: np.ndarray, cfg: GameConfig):
    """Best response at every node of a payoff path, and its profitable switches.

    Returns u, with u[k] = optimal_control(gs[k]), and the cone scan:
    cone_worst, the largest switch gain on the path (-inf when m == 1);
    violations, the number of (node, level, from, to) switches with a
    positive gain; violations_head, the first VIOLATION_CAP of them as
    (t, level, from, to, gain).  _cone_worst comes first: below 0, every
    target stays and nothing is profitable, so no gain tensor is built.
    Otherwise a pass over the path in blocks of nodes whose gains, about
    m + 4 values per state with the maxima, targets and hits, fit in
    BLOCK_BYTES gives all of them.
    """
    n, m = cfg.n, cfg.m
    stay = np.arange(m, dtype=np.min_scalar_type(m - 1))   # targets lie in [0, m)
    worst = _cone_worst(gs, cfg)
    if worst < 0.0:
        return np.broadcast_to(stay, gs.shape), {"cone_worst": worst, "violations": 0,
                                                 "violations_head": []}
    size = max(1, BLOCK_BYTES // (8 * n * m * (m + 4)))
    us = np.empty(gs.shape, dtype=stay.dtype)
    worst, count, head = float("-inf"), 0, []
    for lo in range(0, len(gs), size):
        gains = switch_gains(gs[lo:lo + size], cfg)
        best = gains.max(axis=-1)
        top = float(best.max())
        # no gain above SWITCH_TOL: every target stays, no argmax needed
        us[lo:lo + size] = stay if top <= SWITCH_TOL else _best_targets(gains, best)
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
    occupied = occupation_array(x, (cfg.n, cfg.m)) > OCCUPIED_TOL
    if not occupied.any():
        return float("-inf")
    return float(switch_gains(np.asarray(g, dtype=float), cfg)[occupied].max())


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
    each step sees the mean of its two end nodes (a matrix: equal nodes).
    mode "fixed": control is used as is, in integrate_forward's forms (None,
    one (n, m) target matrix or a Control), one gain per piece;
    mode "optimizing": control must be None; every stage takes the best
    switch at the current g, the maximum of switch_gains over the target.
    Inside the no-switch cone, where the payoff spread less the smallest
    switch fee is at most SWITCH_TOL, that term is exactly zero (IEEE
    subtraction is monotone).  One rule, per step: first, and after a step
    whose four stage inputs lay in the cone together, a step runs bare and
    is kept when its own four inputs do too; otherwise it runs with the
    switch term, and its inputs decide the next step.  With lam negative,
    nan or inf no step is kept bare.  meta["cone_steps"] counts those kept.
    Each step's switch-free flow is hjb_rhs's affine map, built for a block
    of steps at a time within BLOCK_BYTES.  A held run, at least a block of
    steps whose end nodes are all equal in bits, shares one map and is
    stepped in blocks of as many steps as BLOCK_BYTES holds nodes.
    Finiteness is checked once per block and reported at the first step, in
    reversed time, that failed.
    Returns a Trajectory with g at the nodes.  In optimizing mode, one pass
    over the nodes adds u, the Control that holds on step k the best
    response to g(times[k]), and meta's cone scan of the path: cone_worst,
    violations and violations_head, as _node_pass gives them.
    """
    if mode not in ("fixed", "optimizing"):
        raise ValueError(f"unknown mode {mode!r}")
    optimizing = mode == "optimizing"
    if optimizing and control is not None:
        raise ValueError("mode 'optimizing' takes no control: it plays the best response")
    n_steps, h = step_grid(t0, t1, dt)
    n, m = cfg.n, cfg.m
    x_nodes = occupation
    if np.ndim(occupation) == 3:
        x_nodes = np.asarray(occupation, dtype=float)
        if x_nodes.shape != (n_steps + 1, n, m):
            raise ValueError(f"occupation path of shape {x_nodes.shape} does not match the "
                             f"grid's {n_steps + 1} nodes of ({n}, {m})")
    elif occupation is not None:
        x_nodes = np.broadcast_to(occupation_array(occupation, (n, m)), (n_steps + 1, n, m))
    step_gain = []   # fixed mode: each step's switch gain, one built per piece
    for a, b, target in [] if optimizing else control_pieces(control, n_steps, n, m):
        step_gain += [None if target is None else _target_gain(target, cfg)] * (b - a)
    times = t0 + h * np.arange(n_steps + 1)

    # Step k runs from node k+1 down to node k: an RK4 step of dg/dt with step -h.
    gs = np.empty((n_steps + 1, n, m))
    gs[n_steps] = gT
    Y = np.empty((4, m, n, 1))   # a step's stage inputs, g first
    ys, ks = tuple(Y), tuple(np.empty_like(Y))   # the stages' inputs and slopes
    Y[0] = _by_column(gT)
    best = _best_gain(cfg) if optimizing else None
    # lam * 0.0 must be +0.0 for a bare step to equal one with the switch term
    fee_min = float(cfg.switch_fee.min()) if 0.0 <= cfg.lam < np.inf else np.nan

    def in_cone():   # the step's four stage inputs together (nan: never)
        return float(Y.max()) - float(Y.min()) - fee_min <= SWITCH_TOL

    bare, cone_steps = optimizing, 0   # bare: the last step's inputs lay in the cone
    run_size = max(1, BLOCK_BYTES // (8 * n * m))   # a held run's block: its nodes alone
    cols = np.empty((min(run_size, n_steps), m, n, 1))   # a block's nodes, by column
    for lo, hi, M, c in _operator_blocks(x_nodes, n_steps, run_size, cfg):
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(hi - 1, lo - 1, -1):
                j = k - lo if len(M) > 1 else 0
                out = cols[k - lo]
                if bare:
                    _payoff_step(M[j], c[j], -h, None, cfg.lam, ys, ks, out)
                    bare = in_cone()
                    cone_steps += bare
                if not bare:
                    _payoff_step(M[j], c[j], -h, best if optimizing else step_gain[k],
                                 cfg.lam, ys, ks, out)
                    bare = optimizing and in_cone()
                ys[0][...] = out
        bad = np.flatnonzero(~np.isfinite(cols[:hi - lo]).all(axis=(1, 2, 3)))
        if bad.size:
            raise HjbError(f"non-finite payoff at t={times[lo + bad[-1]]:.6g}; "
                           f"reduce dt (dt={h:.3g})")
        gs[lo:hi] = cols[:hi - lo, :, :, 0].transpose(0, 2, 1)
    meta = {"dt": h, "mode": mode}
    if not optimizing:
        return Trajectory(times=times, g=gs, meta=meta)
    us, scan = _node_pass(times, gs, cfg)
    return Trajectory(times=times, g=gs, u=Control.of_steps(us[:-1]),
                      meta={**meta, "cone_steps": cone_steps, **scan})
