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
the flow is affine in g, an operator pair built for a block of steps at a
time, or once for a held run of occupation nodes equal in bits.
integrate_backward steps the payoff in runs, each holding one switch term
and one operator pair: the block's, by column, or for held targets within
kinetics.flat_operators a flat one that folds the switch in
(_flat_operator).  A run whose flow is affine, a bare response or flat
targets, computes its step outputs alone: on a held run of rows**2 steps
or more as powers of the pair's RK4 step map (_step_map, _extend_powers),
otherwise as RK4 in Horner form (_horner_run), and then its stage inputs
in one batched pass (_stage_inputs).  Other runs step by kinetics.rk4_step.
The optimizing pass holds the best response over response runs, checked
in bits against the best switch at their stage inputs (_best_response).
After the sweep, one pass over the nodes gives the best responses and the
path's largest switch gain.
"""
from __future__ import annotations

import math

import numpy as np

from .kinetics import Trajectory, flat_operators, rk4_scalars, rk4_step, step_grid
from .model import Control, GameConfig, control_pieces, grid_array, occupation_array

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
# Per-step payoff operators, with the arrays that assemble them, a response
# run's stage inputs (half) and its check's bounds and switch gains (a
# quarter each), and the node pass's switch gains and column-pair
# differences are built a block at a time in about this many bytes.  A held
# step map's powers, one map for each step a response run may take, take
# rows / 8 times that (rows: the map's, n by column or n * m flat).
BLOCK_BYTES = 1 << 17


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


def _operator_blocks(x_nodes, n_steps: int, cfg: GameConfig):
    """The payoff pass's blocks of steps, from n_steps down to 0, as (lo, hi,
    M, c, held): steps lo..hi-1 and their operators, one per step or one for
    all, and the held run's length (0 between held runs).

    A held run, _block_steps or more steps whose end nodes are all equal in
    bits (the forward fill, a fixed occupation; the whole path when x_nodes
    is None), is one block sharing one operator, built from 0.5 * (v + v)
    as each of its steps' mean nodes is.  The steps between held runs go in
    blocks of _block_steps, one operator per step.
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
            yield (lo, hi, *_payoff_operators(mean, cfg), 0)
        if a < b:
            v = None if x_nodes is None else x_nodes[b:b + 1]
            yield (a, b, *_payoff_operators(None if v is None else 0.5 * (v + v), cfg), b - a)
        top = a


def _target_gains(cfg: GameConfig):
    """The switch term of fixed targets, built once per pass: gain_of(target)
    gives, for an (n, m) target matrix, (term, cells, fee).  term(G) is
    G[cells] - G - fee at a stage input G (m, n, 1), in a buffer of its own
    that its next call overwrites.  cells is the flat by-column index
    k * n + i of each cell's destination (i, k), switch_cells's, and fee
    the fee of that switch, both flat in G's order: one lookup of
    switch_cells(target) in two tables by source column and row-major
    destination gives both."""
    n, m = cfg.n, cfg.m
    dest = np.arange(n * m)   # row-major, i * m + k
    cell_table = np.tile(dest % m * n + dest // m, m)
    fee_table = cfg.fee_B[:, dest % m].reshape(-1)
    column = n * m * np.arange(m)[:, None]   # each source column's table

    def gain_of(target):
        at = cfg.switch_cells(target).T + column   # (m, n): by source column
        cells, fee = cell_table.take(at).reshape(-1), fee_table.take(at).reshape(-1)
        cost = fee.reshape(m, n, 1)
        out = np.empty((m, n, 1))
        flat = out.reshape(-1)

        def term(y):
            y.take(cells, out=flat, mode="clip")   # cells are in range: take's unbuffered path
            np.subtract(out, y, out)
            np.subtract(out, cost, out)
            return out

        return term, cells, fee

    return gain_of


def _flat_operator(M, c, cells, fee, lam: float):
    """The payoff flow of operators M (..., m, n, n) and c (..., m, n, 1)
    under fixed targets, M @ G + c - lam * (G[cells] - G - fee) with
    _target_gains's cells and fee, as A @ G + b on the flat by-column payoff
    (n * m, 1): A (..., nm, nm) holds M's blocks on the diagonal less
    lam * (P - I), P the gather of cells, and b (..., nm, 1) = c + lam * fee."""
    *stack, m, n, _ = M.shape
    size = n * m
    A = np.zeros((*stack, m, n, m, n))
    A[..., np.arange(m), :, np.arange(m), :] = np.moveaxis(M, -3, 0)
    A = A.reshape(*stack, size, size)
    eye = np.eye(size)
    A -= lam * (eye[cells] - eye)
    return A, c.reshape(*stack, size, 1) + lam * fee[:, None]


def _step_map(A, b, h):
    """One RK4 step, of step h, of the affine flow A @ G + b, as an affine map
    of the payoff: (P, o), with P @ G + o the step's output.

    A run's operator pair on either layout: the by-column blocks of M (m, n,
    n) and c (m, n, 1), giving P (m, n, n) and o (m, n, 1) on G (m, n, 1),
    or _flat_operator's A (nm, nm) and b (nm, 1), giving P (nm, nm) and o
    (nm, 1) on the flat by-column payoff.  Either is one kinetics.rk4_step
    of the slope Z -> A @ Z + [0 | b] from the augmented identity [I | 0]:
    on an affine flow each RK4 stage is an affine map (the step's is
    R(hA)), so the identity columns carry the linear part and the last
    column, from 0, the constant.  integrate_backward builds one per held
    operator and response, and a held run's nodes come from its powers
    (_extend_powers).
    """
    rows = A.shape[-1]
    Z = np.zeros(A.shape[:-1] + (rows + 1,))
    Z[..., :rows] = np.eye(rows)
    C = np.zeros(Z.shape)
    C[..., rows:] = b
    Q = rk4_step(lambda z: np.matmul(A, z) + C, Z, h)
    return np.ascontiguousarray(Q[..., :rows]), np.ascontiguousarray(Q[..., rows:])


def _extend_powers(P, o, have: int, want: int) -> int:
    """Extend a held step map's powers from `have` steps to `want`, in place:
    node r of a held run from G is P[r] @ G + o[r], P[1] and o[1] the step
    map.  P[r + 1] = P[1] @ P[r] and o[r + 1] = P[1] @ o[r] + o[1], so the
    constants are the step map's own steps from 0.  Returns want."""
    for r in range(have, want):
        np.matmul(P[1], P[r], out=P[r + 1])
        np.matmul(P[1], o[r], out=o[r + 1])
        o[r + 1] += o[1]
    return want


def _horner_run(A, b, step, nodes) -> None:
    """RK4 steps of the affine flow A @ y + b with step `step`, from nodes[0]
    into nodes[1], nodes[2], ...: step r by A[r] and b[r], or every step by
    A[0] and b[0] when they hold one operator.

    Each step is y + phi(hA) @ (hA @ y + hb), phi(z) = 1 + z/2 (1 + z/3 (1 +
    z/4)) in Horner form: the classical RK4 step of an affine flow, whose
    stability polynomial is 1 + z phi(z), in four matmuls and five adds
    against a stage step's 21 numpy calls.  hA, hA / 4, hA / 3, hA / 2 and
    hb are formed once, for all steps at once.
    """
    hA = A * step
    ops = list(zip(hA, hA / 4, hA / 3, hA / 2, b * step))
    d, u = np.empty((2, *nodes[0].shape))
    for r in range(len(nodes) - 1):
        a1, a4, a3, a2, hb = ops[r if len(ops) > 1 else 0]
        y, out = nodes[r], nodes[r + 1]
        np.matmul(a1, y, out=d)
        d += hb
        np.matmul(a4, d, out=u)
        u += d
        np.matmul(a3, u, out=out)
        out += d
        np.matmul(a2, out, out=u)
        u += d
        np.add(y, u, out=out)


def _stage_inputs(Y, S, scalars, A, b) -> None:
    """The three RK4 stage inputs of each step of an affine run, from the
    steps' inputs Y (L, ...) into S (L, 3, ...), all steps at once:
    kinetics.rk4_step's stage formulas on the slope A @ y + b, in its order
    of operations, A and b holding one operator per step or one for all."""
    half, step = scalars[:2]
    T = np.empty((3, *Y.shape))   # then into S at once: steps on a strided S are slower
    stage = Y
    for s, scale in enumerate((half, half, step)):
        stage = np.matmul(A, stage, out=T[s])
        stage += b
        stage *= scale
        stage += Y
    S[...] = T.swapaxes(0, 1)


def _best_response(cfg: GameConfig):
    """The optimizing pass's uses of the best switch, as three closures, and
    the response runs that integrate_backward plays with them.

    gain(G): the best-switch term where(best > SWITCH_TOL, best, 0) at a
    stage input G (m, n, 1), the maximum of switch_gains over the target,
    bit for bit.  respond(G): the best response at G, optimal_control's, as
    a response run holds it: (gain, cells, fee, moving), _target_gains's
    term of its targets and the mask of the cells that switch (None when
    everybody stays).  An all-stay response runs bare, gain None, where
    lam * 0.0 is +0.0 (0 <= lam < inf, -0.0 excepted).  check(Y, response):
    how many steps of a run that held that response, from its first, played
    the best response, given their stage inputs Y (S, 4, m, n, 1).  A step
    did when at each of its inputs the best-switch term equals the held
    term (+0.0 when bare) in bits, so that nan and the sign of a zero are
    exact too; where the held target is the argmax, or ties it, the term is
    the same float.  Bounds settle most inputs, since x -> fl(x - y) is
    monotone: an all-stay run first tries the cone bound, each step's joint
    stage spread less the smallest switch fee at most SWITCH_TOL; then every
    gain at (i, j) is at most fl(fl(max_k g[i, k] - g[i, j]) - the column's
    smallest fee), which settles a stay bounded by SWITCH_TOL and a switch
    bounded by its held gain, itself above SWITCH_TOL.  The inputs left, or
    a one-step run's three, whose gains cost no more than the bound, take
    the best switch itself.  The check goes a chunk of inputs at a time, its
    bounds and gains each within a quarter of BLOCK_BYTES, and stops at the
    first failed input.  The run's first input needs none: the held
    response was chosen there.
    A response run plays the response at its first node through the
    fixed-target gain, its stage inputs kept.  The steps before its first
    failed step are kept; that step is rerun from its saved input with the
    best switch.  A run is twice the last verified one, one step after a
    failure, and at most as many steps as half of BLOCK_BYTES holds stage
    inputs of.  After a run fails at its first step, the next 4, 16, 64,
    ... steps take the best switch directly, until a run verifies.
    """
    n, m = cfg.n, cfg.m
    gain_of = _target_gains(cfg)
    # switch_gains on the flattened columns, target first: gains(flat)[..., k,
    # j*n + i] is the gain of (i, j) -> (i, k), so the best switch is a maximum
    # over axis -2
    to = n * np.arange(m)[:, None] + np.arange(n * m) % n
    fee = np.repeat(cfg.switch_fee.T, n, axis=1)
    own = np.arange(n * m) // n   # each flat cell's column
    fee_min = float(cfg.switch_fee.min())
    fee_low = cfg.switch_fee.min(axis=1)[:, None]   # each column's smallest switch fee
    rows = max(1, BLOCK_BYTES // (4 * 32 * n * m))   # a chunk of inputs: its bounds
    exact = max(1, BLOCK_BYTES // (4 * 8 * m * n * m))   # the gains of that many
    # lam * 0.0 is +0.0 (0 <= lam < inf, and not -0.0): k - 0.0 is k, bit for bit
    bare = math.copysign(1.0, cfg.lam) > 0.0 and cfg.lam < np.inf

    def gains(flat):
        return flat.take(to, axis=-1) - flat[..., None, :] - fee

    def switch(g):   # the best-switch term; > 0.0 exactly where best > SWITCH_TOL
        best = g.max(axis=-2)
        return np.where(best > SWITCH_TOL, best, 0.0)

    def gain(y):
        return switch(gains(y.reshape(-1))).reshape(y.shape)

    def respond(y):
        g = gains(y.reshape(-1))
        target = np.where(switch(g) > 0.0, g.argmax(axis=0), own)
        moving = target != own
        if not moving.any():
            if bare:
                return None, None, None, None
            moving = None
        return (*gain_of(target.reshape(m, n).T), moving)   # targets as (n, m)

    def check(Y, response):
        _, cells, cost, moving = response
        S = len(Y)
        if moving is None:
            flat = Y.reshape(S, -1)
            if (flat.max(axis=1) - flat.min(axis=1) - fee_min <= SWITCH_TOL).all():
                return S
        Z = Y.reshape(4 * S, m, n)
        for lo in range(1, 4 * S, rows):
            z = Z[lo:lo + rows]
            flat = z.reshape(len(z), -1)
            term = None if cells is None else flat.take(cells, axis=1) - flat - cost
            miss = np.arange(len(z))
            if S > 1:
                bound = (z.max(axis=1, keepdims=True) - z - fee_low).reshape(len(z), -1)
                if moving is None:
                    ok = bound <= SWITCH_TOL
                else:
                    ok = bound <= np.where(moving, term, SWITCH_TOL)
                    ok &= (term > SWITCH_TOL) | ~moving
                miss = miss[~ok.all(axis=1)]
            for a in range(0, len(miss), exact):
                r = miss[a:a + exact]
                best = switch(gains(flat[r])).view(np.int64)
                bad = best != (0 if term is None else term[r].view(np.int64))
                bad = bad.any(axis=1)
                if bad.any():
                    return (lo + int(r[bad.argmax()])) // 4
        return S

    return gain, respond, check


def _by_column(g: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(g.T)[:, :, None]


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
    G = _by_column(grid_array(g, (cfg.n, cfg.m), "payoff"))
    dg = M[0] @ G + c[0]
    if target is not None:
        dg -= cfg.lam * _target_gains(cfg)(target)[0](G)
    return np.ascontiguousarray(dg[..., 0].T)


def optimal_control(g, cfg: GameConfig) -> np.ndarray:
    """Best response to a payoff matrix: switch only on a strictly positive gain.

    Returns the (n, m) integer target matrix: an agent at (i, j) moves to
    behaviour target[i, j], and target[i, j] == j means stay.  Gains within
    1e-12 of zero keep the agent in place; among tied positive gains the
    lowest target index wins (deterministic).
    """
    gains = switch_gains(grid_array(g, (cfg.n, cfg.m), "payoff"), cfg)
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


def _node_pass(gs: np.ndarray, cfg: GameConfig):
    """Best response at every node of a payoff path, and its largest switch gain.

    Returns u, with u[k] = optimal_control(gs[k]), and cone_worst, the
    largest switch gain on the path (_cone_worst's; -inf when m == 1).  At
    most SWITCH_TOL, every target stays, so no gain tensor is built.
    Otherwise a pass over the path in blocks of nodes whose gains, m + 3
    values per state with their maxima, argmax and targets, fit in
    BLOCK_BYTES gives the targets; a block with no gain above SWITCH_TOL
    stays without the argmax.
    """
    n, m = cfg.n, cfg.m
    stay = np.arange(m, dtype=np.min_scalar_type(m - 1))   # targets lie in [0, m)
    worst = _cone_worst(gs, cfg)
    if worst <= SWITCH_TOL:
        return np.broadcast_to(stay, gs.shape), worst
    size = max(1, BLOCK_BYTES // (8 * n * m * (m + 3)))
    us = np.empty(gs.shape, dtype=stay.dtype)
    for lo in range(0, len(gs), size):
        gains = switch_gains(gs[lo:lo + size], cfg)
        best = gains.max(axis=-1)
        us[lo:lo + size] = stay if best.max() <= SWITCH_TOL else _best_targets(gains, best)
    return us, worst


def consistency_margin(g, x, cfg: GameConfig) -> float:
    """Largest switch gain available anywhere the population actually sits.

    Nonpositive means no occupied state profits from deviating.  With a single
    behaviour level there is nothing to deviate to: returns -inf.
    """
    g = grid_array(g, (cfg.n, cfg.m), "payoff")
    occupied = occupation_array(x, (cfg.n, cfg.m)) > OCCUPIED_TOL
    if not occupied.any():
        return float("-inf")
    return float(switch_gains(g, cfg)[occupied].max())


@np.errstate(all="ignore")
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
    switch at the current g, the maximum of switch_gains over the target,
    bit for bit, most of them through a held best response
    (_best_response).  meta["held_steps"] counts the steps kept from
    response runs, meta["rerun_steps"] the n_steps others.
    A payoff gT not of the grid's (n, m) raises ValueError, and so does a
    grid that step_grid refuses (past kinetics.NODE_BYTES, say).
    The steps go in runs, each within one of _operator_blocks's blocks and
    holding one switch term: fixed mode's control, a held best response (a
    response run) or the best switch itself (direct steps and reruns).  A
    run's operator pair is the block's by-column (M, c), hjb_rhs's affine
    map, or, for held targets where kinetics.flat_operators holds (3 x 3
    and 5 x 5, not 6 x 6), _flat_operator's (A, b), built once per run and
    block.  A response run whose flow is affine (a bare response, or
    targets on the flat pair) computes its step outputs alone.  On a held
    block of rows**2 steps or more (rows n bare, n * m for targets), node r
    of the run is P[r] @ G + o[r] from its first node G, the powers of the
    pair's step map (_step_map, cached per held operator and response, its
    powers extended as far as the runs reach): one product for the run.
    Such a node's last bits depend on where its run started, and run starts
    on the run cap and block edges that BLOCK_BYTES sets, so g's last bits
    depend on BLOCK_BYTES too.
    Otherwise each step is RK4 in Horner form (_horner_run), 9 numpy calls
    against 21 for the stages.  One batched pass then gives the run's stage
    inputs, which the response check reads (_stage_inputs: rk4_step's stage
    formulas on the run's operator pair, from the run's nodes).  Every
    other run (the best switch's direct steps and reruns, fixed mode, and
    held targets outside flat_operators) steps by kinetics.rk4_step of A @
    G + b - lam * term(G) on A's layout, writing its stage inputs.  A run
    writes into its history, copied into the node path once per run.
    meta's map_steps and horner_steps count the steps kept from map powers
    and Horner steps, flat_steps the Horner steps on flat pairs, maps the
    maps built.
    The pass, node pass included, runs under np.errstate(all="ignore"), the
    forward pass's rule: no floating-point warning or error of numpy reaches
    the caller, and the outputs are judged instead.  A run's first kept step whose output is not
    finite is rerun by stages with the best switch, and a stage step of the
    best switch or of fixed mode whose output is not finite raises HjbError
    at its node.  A stage step the check kept reruns to its own
    bits; a Horner or map-power step, which rounds and overflows otherwise,
    reruns as the stages take it.  The rule cannot reach a Horner or
    map-power output that stays finite where the stages would overflow.
    Returns a Trajectory with g at the nodes.  In optimizing mode, one pass
    over the nodes adds u, the Control that holds on step k the best
    response to g(times[k]), and meta's cone_worst, the largest switch gain
    on the path, as _node_pass gives it.
    """
    if mode not in ("fixed", "optimizing"):
        raise ValueError(f"unknown mode {mode!r}")
    optimizing = mode == "optimizing"
    if optimizing and control is not None:
        raise ValueError("mode 'optimizing' takes no control: it plays the best response")
    n, m = cfg.n, cfg.m
    n_steps, h = step_grid(t0, t1, dt, n * m)
    gT = grid_array(gT, (n, m), "payoff")
    x_nodes = occupation
    if np.ndim(occupation) == 3:
        x_nodes = np.asarray(occupation, dtype=float)
        if x_nodes.shape != (n_steps + 1, n, m):
            raise ValueError(f"occupation path of shape {x_nodes.shape} does not match the "
                             f"grid's {n_steps + 1} nodes of ({n}, {m})")
    elif occupation is not None:
        x_nodes = np.broadcast_to(occupation_array(occupation, (n, m)), (n_steps + 1, n, m))
    step_gain = []   # fixed mode: each step's switch gain, one built per piece
    gain_of = _target_gains(cfg)
    for a, b, target in [] if optimizing else control_pieces(control, n_steps, n, m):
        step_gain += [None if target is None else gain_of(target)[0]] * (b - a)
    times = t0 + h * np.arange(n_steps + 1)
    scalars, lam = rk4_scalars(-h), np.array(cfg.lam)

    # Step k runs from node k+1 down to node k: an RK4 step of dg/dt with step -h.
    gs = np.empty((n_steps + 1, n, m))
    gs[n_steps] = gT
    # a run's most steps: their stage inputs fill half of BLOCK_BYTES
    size = max(1, BLOCK_BYTES // (2 * 8 * 4 * n * m))
    # the run's history: step r's input H[r, 0], its stage inputs H[r, 1:]
    # and its output H[r + 1, 0]; as seen on either operator layout, by
    # column (m, n, 1) and flat (n * m, 1), by a step's b.ndim
    H = np.empty((size + 1, 4, m, n, 1))
    H[0, 0] = _by_column(gT)
    layouts = {len(shape): H.reshape(size + 1, 4, *shape) for shape in ((m, n, 1), (n * m, 1))}
    if optimizing:
        best, respond, check = _best_response(cfg)
    # run: the next response run's length.  direct: steps left to take the best
    # switch directly, `backoff` of them after a run fails at its first
    # step; fixed mode takes every step so, with its control's gain.
    run, backoff, direct, held_steps = 1, 4, 0 if optimizing else n_steps, 0
    A_k = b_k = term_k = None   # the step's operator, constant and switch term
    flat = flat_operators(cfg)   # held targets step by _flat_operator's A @ G + b
    # the most steps of a moving block whose flat operators fit BLOCK_BYTES
    # (their Horner form's four scaled copies take four times that)
    flat_run = max(1, BLOCK_BYTES // (8 * n * m * (n * m + 1)))
    maps, maps_for = {}, None   # the step maps of operator maps_for, by target cells
    map_steps = built = flat_steps = horner_steps = 0

    def operators(span, cells, fee):   # a run's operator pair on the block's steps `span`
        if cells is None or not flat:
            return M[span], c[span]
        return _flat_operator(M[span], c[span], cells, fee, cfg.lam)

    def step_map(cells, fee, length):   # the held run's operator pair and powers, or None
        nonlocal built, maps_for
        # a map of rows x rows blocks costs about `rows` of its steps to build,
        # and a bare map step as much arithmetic as its stages: a held run of
        # rows**2 steps or more builds one, at most 1 / rows of its steps' cost.
        # Its powers, a product each, reach as far as its longest run
        rows = n if cells is None else n * m
        if held < rows * rows:
            return None
        if M is not maps_for:
            maps.clear()
            maps_for = M
        key = None if cells is None else cells.tobytes()
        if key not in maps:
            A, b = operators(slice(None), cells, fee)
            P1, o1 = _step_map(A[0], b[0], scalars)
            P = np.empty((min(size, held) + 1, *P1.shape))
            o = np.empty((len(P), *o1.shape))
            P[0], o[0], P[1], o[1] = np.eye(rows), 0.0, P1, o1
            maps[key] = [A, b, P, o, 1]   # and how many powers are built
            built += 1
        entry = maps[key]
        if entry[4] < length:
            entry[4] = _extend_powers(entry[2], entry[3], entry[4], length)
        return entry[:4]

    def slope(y):   # term_k(y) returns an array the slope may overwrite
        dg = np.matmul(A_k, y)
        dg += b_k
        if term_k is not None:
            term = term_k(y)
            term *= lam
            dg -= term
        return dg

    def step(A, b, term, r):   # a run's step r by stages, on A's layout
        nonlocal A_k, b_k, term_k
        A_k, b_k, term_k = A, b, term
        V = layouts[b.ndim]
        rk4_step(slope, V[r, 0], scalars, out=V[r + 1, 0], stages=(V[r, 1], V[r, 2], V[r, 3]))

    def finite_steps(count):   # how many of a run's first `count` outputs lead, all finite
        out = H[1:count + 1, 0]
        if math.isfinite(out.sum()):   # a sum of finite outputs that overflows finds none
            return count
        finite = np.isfinite(out).all(axis=(1, 2, 3))
        return count if finite.all() else int(finite.argmin())

    for lo, hi, M, c, held in _operator_blocks(x_nodes, n_steps, cfg):
        moving = len(M) > 1
        k = hi - 1
        while k >= lo:   # a run of steps k, k - 1, ..., from H[0, 0]
            length = min(direct or run, size, k - lo + 1)
            if direct:
                for r in range(length):
                    j = k - r - lo if moving else 0
                    step(M[j], c[j], best if optimizing else step_gain[k - r], r)
                direct, kept = direct - length, length
            else:
                response = respond(H[0, 0])
                term, cells, fee = response[:3]
                # affine: a bare response by column, or targets on a flat operator
                affine = cells is None or flat
                mapped = affine and step_map(cells, fee, length)
                by_flat = not mapped and flat and cells is not None
                if mapped:   # node r of the run: P[r] @ G + o[r], G its first
                    A, b, P, o = mapped
                    V = layouts[b.ndim - 1]
                    nodes = np.matmul(P[1:length + 1], V[0, 0])
                    nodes += o[1:length + 1]
                    V[1:length + 1, 0] = nodes
                else:   # steps k .. k - length + 1's operators, step r's at r
                    if by_flat and moving:
                        length = min(length, flat_run)
                    span = slice(k - length + 1 - lo, k + 1 - lo) if moving else slice(None)
                    A, b = (a[::-1] for a in operators(span, cells, fee))
                    V = layouts[b.ndim - 1]
                    if affine:
                        _horner_run(A, b, scalars[1], list(V[:length + 1, 0]))
                    else:   # held targets by column: stages with their gather
                        for r in range(length):
                            step(A[r if moving else 0], b[r if moving else 0], term, r)
                if affine:
                    _stage_inputs(V[:length, 0], V[:length, 1:], scalars, A, b)
                kept = finite_steps(check(H[:length], response))
                held_steps += kept
                map_steps += kept if mapped else 0
                horner_steps += kept if affine and not mapped else 0
                flat_steps += kept if by_flat else 0
                if kept == length:
                    run, backoff = min(2 * run, size), 4
                else:   # rerun the first failed step from its saved input
                    j = k - kept - lo if moving else 0
                    step(M[j], c[j], best, kept)
                    run = 1
                    if kept == 0:
                        direct, backoff = backoff, 4 * backoff
            end = min(kept + 1, length)
            bad = finite_steps(end)
            if bad < end:
                raise HjbError(f"non-finite payoff at t={times[k - bad]:.6g}; "
                               f"reduce dt (dt={h:.3g})")
            gs[k - end + 1:k + 1] = H[end:0:-1, 0, :, :, 0].transpose(0, 2, 1)
            H[0, 0] = H[end, 0]
            k -= end
    meta = {"dt": h, "mode": mode, "map_steps": map_steps, "maps": built,
            "horner_steps": horner_steps, "flat_steps": flat_steps}
    if not optimizing:
        return Trajectory(times=times, g=gs, meta=meta)
    us, worst = _node_pass(gs, cfg)
    return Trajectory(times=times, g=gs, u=Control.of_steps(us[:-1]),
                      meta={**meta, "held_steps": held_steps,
                            "rerun_steps": n_steps - held_steps, "cone_worst": worst})
