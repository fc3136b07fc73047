from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import hbmfg.hjb
from hbmfg import (
    Control,
    GameConfig,
    HjbError,
    Occupation,
    Regime,
    consistency_margin,
    default_dt,
    default_horizon,
    effective_rewards,
    hjb_rhs,
    integrate_backward,
    integrate_forward,
    kinetic_rhs,
    optimal_control,
    solve_mfg,
    switch_gains,
)
from hbmfg.hjb import BLOCK_BYTES, SWITCH_TOL, _block_steps, _node_pass
from hbmfg import kinetics
from hbmfg.kinetics import rk4_scalars, rk4_step
from hbmfg.io import read_config
from test_io_cli import EXAMPLE
from test_kinetics import column_generator, random_control, random_simplex, stage_cases
from util_configs import load_oracle, make_config, stayput_config, steps_of, theorem_config


def hjb_loops(g, x, u, cfg):
    """Element-by-element transcription of the payoff flow."""
    n, m = cfg.n, cfg.m
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = cfg.delta_dis * g[i, j] - cfg.w[i, j]
            up = (g[i + 1, j] - g[i, j]) if i < n - 1 else 0.0
            dn = ((g[i - 1, j] - g[i, j]) if i > 0 else 0.0) - cfg.fee_H[i]
            acc -= cfg.q_up[i, j] * up + cfg.q_down[i, j] * dn
            if cfg.delta_int != 0.0:
                s_up = sum(cfg.q_up_evo[i, j, k] * x[i, k] for k in range(m))
                s_dn = sum(cfg.q_down_evo[i, j, k] * x[i, k] for k in range(m))
                acc -= cfg.delta_int * (s_up * up + s_dn * dn)
            if cfg.q_sink is not None and i > 0:  # drop to level 1, fined
                rate = cfg.q_sink.direct[i, j] + cfg.delta_int * sum(
                    cfg.q_sink.interaction[i, j, k] * x[i, k] for k in range(m)
                )
                acc -= rate * (g[0, j] - g[i, j] - cfg.fee_H[i])
            if u is not None and u[i, j] != j:  # switch to k = u[i, j]
                k = u[i, j]
                acc -= cfg.lam * (g[i, k] - g[i, j] - cfg.fee_B[j, k])
            out[i, j] = acc
    return out


def test_rhs_matches_loop_oracle():
    rng = np.random.default_rng(17)
    fee_rng = np.random.default_rng(170)  # asymmetric switching fees
    for case in range(16):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        cfg = make_config(n, m, rng, db=bool(case % 2), balanced_evo=False,
                          fine=0.3, lam=float(rng.uniform(0.5, 2.0)), sink=case >= 12)
        fee_B = fee_rng.uniform(0.2, 2.0, size=(m, m))
        np.fill_diagonal(fee_B, 0.0)
        cfg = dataclasses.replace(cfg, fee_B=fee_B)
        g = rng.normal(size=(n, m))
        x = random_simplex(n, m, rng)
        u = random_control(n, m, rng) if case % 3 else None
        npt.assert_allclose(hjb_rhs(g, x, u, cfg), hjb_loops(g, x, u, cfg),
                            rtol=0, atol=1e-13)


def test_payoff_flow_is_adjoint_of_kinetic_flow():
    # with rewards and fees zero, <kinetic_rhs(x), g> = <x, delta_dis*g - hjb_rhs(g)>
    rng = np.random.default_rng(29)
    for case in range(12):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 4))
        cfg = make_config(n, m, rng, db=False, balanced_evo=False, delta=0.3,
                          regime=Regime.ID2, lam=float(rng.uniform(0.5, 2.0)),
                          sink=bool(case % 2))
        cfg = dataclasses.replace(cfg, w=np.zeros((n, m)), fee_B=np.zeros((m, m)),
                                  fee_H=np.zeros(n))
        x = random_simplex(n, m, rng)
        g = rng.normal(size=(n, m))
        u = random_control(n, m, rng)
        kin = kinetic_rhs(x, u, cfg)
        adj = cfg.delta_dis * g - hjb_rhs(g, x, u, cfg)
        scale = float(np.sum(np.abs(kin * g)))
        assert abs(float(np.sum(kin * g) - np.sum(x * adj))) <= 1e-12 * scale, case


def test_rhs_frozen_two_level_chain():
    cfg = GameConfig(
        n=2, m=1, q_up=[[1.0], [0.0]], q_down=[[0.0], [1.0]],
        q_up_evo=np.zeros((2, 1, 1)), q_down_evo=np.zeros((2, 1, 1)),
        w=np.zeros((2, 1)), fee_B=np.zeros((1, 1)), fee_H=[0.0, 0.5],
        delta=0.1,
    )
    g = np.array([[1.0], [0.0]])
    npt.assert_allclose(hjb_rhs(g, None, None, cfg), [[1.1], [-0.5]], atol=1e-15)


def test_rhs_requires_occupation_with_interaction():
    # hjb_rhs and both modes of integrate_backward refuse a missing occupation
    rng = np.random.default_rng(2)
    cfg = make_config(2, 2, rng)  # delta_int = 0.05^2 > 0
    assert cfg.moves.evo.any()
    why = "^occupation required when the config has stimulated moves$"
    with pytest.raises(HjbError, match=why):
        hjb_rhs(np.zeros((2, 2)), None, None, cfg)
    for mode in ("fixed", "optimizing"):
        with pytest.raises(HjbError, match=why):
            integrate_backward(np.zeros((2, 2)), None, 0.0, 1.0, 0.1, cfg, mode=mode)


def test_switch_gains_frozen():
    cfg = GameConfig(
        n=1, m=2, q_up=np.zeros((1, 2)), q_down=np.zeros((1, 2)),
        q_up_evo=np.zeros((1, 2, 2)), q_down_evo=np.zeros((1, 2, 2)),
        w=np.ones((1, 2)), fee_B=[[0.0, 1.0], [2.0, 0.0]], fee_H=np.zeros(1),
    )
    gains = switch_gains(np.array([[1.0, 3.0]]), cfg)
    # staying is no switch: -inf on the diagonal
    npt.assert_array_equal(gains[0], [[-np.inf, 1.0], [-4.0, -np.inf]])


def test_optimal_control_tie_and_threshold():
    cfg = GameConfig(
        n=1, m=3, q_up=np.zeros((1, 3)), q_down=np.zeros((1, 3)),
        q_up_evo=np.zeros((1, 3, 3)), q_down_evo=np.zeros((1, 3, 3)),
        w=np.ones((1, 3)), fee_B=np.zeros((3, 3)), fee_H=np.zeros(1),
    )
    u = optimal_control(np.array([[0.0, 1.0, 1.0]]), cfg)
    # tied targets resolve to the lowest index; zero gains stay put
    npt.assert_array_equal(u, [[1, 1, 2]])
    assert np.issubdtype(u.dtype, np.integer)
    # gains at rounding scale do not trigger a switch
    u2 = optimal_control(np.array([[0.0, 1e-13, 0.0]]), cfg)
    npt.assert_array_equal(u2, [[0, 1, 2]])


def test_consistency_margin_masks_unoccupied():
    cfg = GameConfig(
        n=1, m=2, q_up=np.zeros((1, 2)), q_down=np.zeros((1, 2)),
        q_up_evo=np.zeros((1, 2, 2)), q_down_evo=np.zeros((1, 2, 2)),
        w=np.ones((1, 2)), fee_B=[[0.0, 1.0], [1.0, 0.0]], fee_H=np.zeros(1),
    )
    g = np.array([[0.0, 5.0]])
    assert consistency_margin(g, np.array([[1.0, 0.0]]), cfg) == pytest.approx(4.0)
    assert consistency_margin(g, np.array([[0.0, 1.0]]), cfg) == pytest.approx(-6.0)


def test_consistency_margin_single_column_is_minus_inf():
    cfg = GameConfig(
        n=2, m=1, q_up=[[1.0], [0.0]], q_down=[[0.0], [1.0]],
        q_up_evo=np.zeros((2, 1, 1)), q_down_evo=np.zeros((2, 1, 1)),
        w=np.ones((2, 1)), fee_B=np.zeros((1, 1)), fee_H=np.zeros(2),
    )
    assert consistency_margin(np.ones((2, 1)), np.full((2, 1), 0.5), cfg) == float("-inf")


def test_integrate_backward_scalar_exponential_oracle():
    cfg = GameConfig(
        n=1, m=1, q_up=np.zeros((1, 1)), q_down=np.zeros((1, 1)),
        q_up_evo=np.zeros((1, 1, 1)), q_down_evo=np.zeros((1, 1, 1)),
        w=[[2.0]], fee_B=np.zeros((1, 1)), fee_H=np.zeros(1),
        delta=0.5,
    )
    traj = integrate_backward([[1.0]], None, 0.0, 2.0, 1e-3, cfg)
    want = 2.0 / 0.5 + (1.0 - 2.0 / 0.5) * np.exp(-0.5 * (2.0 - traj.times))
    npt.assert_allclose(traj.g[:, 0, 0], want, atol=1e-11)


def test_integrate_backward_occupation_forms_agree():
    rng = np.random.default_rng(8)
    cfg = make_config(3, 2, rng, balanced_evo=False, fine=0.2)
    x = random_simplex(3, 2, rng)
    gT = rng.normal(size=(3, 2))
    a = integrate_backward(gT, x, 0.0, 1.0, 0.02, cfg)
    b = integrate_backward(gT, np.broadcast_to(x, (51, 3, 2)), 0.0, 1.0, 0.02, cfg)
    npt.assert_array_equal(a.g, b.g)
    assert a.times[0] == 0.0 and a.times[-1] == 1.0
    npt.assert_array_equal(a.g[-1], np.asarray(gT))
    # a fixed control and its per-step stack agree too
    u = random_control(3, 2, rng)
    c = integrate_backward(gT, x, 0.0, 1.0, 0.02, cfg, control=u)
    d = integrate_backward(gT, x, 0.0, 1.0, 0.02, cfg,
                           control=Control.of_steps(np.broadcast_to(u, (50, 3, 2))))
    npt.assert_array_equal(c.g, d.g)
    # on a node path each step sees the mean of its two end nodes
    y = random_simplex(3, 2, rng)
    path = integrate_backward(gT, np.stack([x, y]), 0.0, 0.5, 0.5, cfg)
    mean = integrate_backward(gT, 0.5 * (x + y), 0.0, 0.5, 0.5, cfg)
    npt.assert_array_equal(path.g, mean.g)


def test_integrate_backward_rejects_paths_of_wrong_length():
    rng = np.random.default_rng(6)
    cfg = make_config(3, 2, rng)
    x = random_simplex(3, 2, rng)
    gT = np.zeros((3, 2))
    with pytest.raises(ValueError, match=r"\(40, 3, 2\).* 51 nodes"):
        integrate_backward(gT, np.broadcast_to(x, (40, 3, 2)), 0.0, 1.0, 0.02, cfg)
    stack = np.broadcast_to(random_control(3, 2, rng), (49, 3, 2))
    with pytest.raises(ValueError, match=r"\(49, 3, 2\).* 50 steps"):
        integrate_backward(gT, x, 0.0, 1.0, 0.02, cfg, control=Control.of_steps(stack))


def test_optimizing_mode_dominates_frozen_control():
    # optimizing recomputes the best response at every stage; its value
    # function must dominate the switch-free one (quasi-monotone comparison)
    rng = np.random.default_rng(23)
    cfg = make_config(3, 3, rng, with_evo=False, fee_switch=0.2, delta=0.1)
    gT = np.zeros((3, 3))
    x = random_simplex(3, 3, rng)
    free = integrate_backward(gT, x, 0.0, 8.0, 0.02, cfg, mode="optimizing")
    frozen = integrate_backward(gT, x, 0.0, 8.0, 0.02, cfg, mode="fixed")
    assert (free.g - frozen.g).min() > -1e-12
    assert free.u is not None and steps_of(free.u).shape == (len(free.times) - 1, 3, 3)
    # stored controls are exactly the best responses at the left nodes
    npt.assert_array_equal(steps_of(free.u), [optimal_control(gk, cfg) for gk in free.g[:-1]])
    # and switching is actually exercised somewhere on the horizon
    assert (free.u.targets != np.arange(3)).any()


def held_run_lengths(x_path, cfg):
    """Each step's held run length, 0 off a held run: a held run is
    _block_steps(cfg) or more steps whose end nodes are all equal in bits,
    whose steps share one payoff operator in integrate_backward."""
    bits = x_path.view(np.int64)
    same = np.concatenate(([False], (bits[1:] == bits[:-1]).all(axis=(1, 2)), [False]))
    held = np.zeros(len(x_path) - 1, dtype=int)
    for a, b in np.flatnonzero(same[1:] != same[:-1]).reshape(-1, 2):
        held[a:b] = b - a if b - a >= _block_steps(cfg) else 0
    return held


def flat_operator(x_mid, target, cfg):
    """The payoff flow at occupation x_mid under a target matrix as A @ G + b
    on the flat by-column payoff G (n * m, 1), built here from
    _payoff_operators and _target_gains: M's blocks on the diagonal less
    lam * (P - I) with P the gather of the target's cells, and the constant
    c + lam * fee."""
    n, m = cfg.n, cfg.m
    M, c = (a[0] for a in hbmfg.hjb._payoff_operators(x_mid[None], cfg))
    _, cells, fee = hbmfg.hjb._target_gains(cfg)(target)
    A = np.zeros((n * m, n * m))
    for j in range(m):
        A[j * n:(j + 1) * n, j * n:(j + 1) * n] = M[j]
    eye = np.eye(n * m)
    A -= cfg.lam * (eye[cells] - eye)
    return A, c.reshape(-1, 1) + cfg.lam * fee[:, None]


def affine_operator(x_mid, target, cfg):
    """The payoff flow at occupation x_mid under a target matrix as A @ G + b:
    flat_operator's, or without a target (everybody stays) M and c of
    _payoff_operators, whose blocks act column by column on G (m, n, 1)."""
    if target is None:
        return tuple(a[0] for a in hbmfg.hjb._payoff_operators(x_mid[None], cfg))
    return flat_operator(x_mid, target, cfg)


def on_layout(g, b):
    """A payoff matrix g (n, m) as a column of b's layout: by column (m, n, 1)
    or flat by column (n * m, 1)."""
    return np.ascontiguousarray(g.T).reshape(b.shape)


def off_layout(ys, cfg):
    """A stack of columns of either layout back to payoff matrices (S, n, m)."""
    return np.asarray(ys).reshape(-1, cfg.m, cfg.n).swapaxes(-1, -2)


def step_map(x_mid, target, h, cfg):
    """The RK4 step of the payoff flow at occupation x_mid under a target
    matrix (None: everybody stays) as an affine map built here from
    affine_operator and rk4_step on the augmented identity [I | 0]: (Q, q),
    Q @ G + q the step's output on the operator's layout."""
    A, b = affine_operator(x_mid, target, cfg)
    rows = A.shape[-1]
    identity = np.concatenate([np.broadcast_to(np.eye(rows), A.shape),
                               np.zeros(A.shape[:-1] + (1,))], axis=-1)
    C = np.concatenate([np.zeros(A.shape), b], axis=-1)
    Q = rk4_step(lambda z: A @ z + C, identity, -h)
    return np.ascontiguousarray(Q[..., :rows]), np.ascontiguousarray(Q[..., rows:])


def map_power(Q, q, r, powers):
    """The step map (Q, q) taken r times, built here one step at a time:
    node r of a held run from G is P @ G + o, with P_(r+1) = Q @ P_r and
    o_(r+1) = Q @ o_r + q.  powers caches them by r."""
    if not powers:
        powers.append((Q, q))
    while len(powers) < r:
        P, o = powers[-1]
        powers.append((Q @ P, Q @ o + q))
    return powers[r - 1]


def horner_step(x_mid, target, h, cfg):
    """The RK4 step of the payoff flow at occupation x_mid under a target
    matrix (None: everybody stays) in Horner form, built here: y + phi(hA)
    @ (hA @ y + hb), phi(z) = 1 + z/2 (1 + z/3 (1 + z/4)), with step -h in
    the reversed clock, A and b affine_operator's.  Y(g): the step's three
    stage inputs, from rk4_step on A @ y + b, and its output (4, n, m)."""
    A, b = affine_operator(x_mid, target, cfg)
    hA, hb = A * -h, b * -h

    def apply(g):
        y = on_layout(g, b)
        stages = []

        def f(z):
            stages.append(z)
            return A @ z + b

        rk4_step(f, y, -h)
        d = hA @ y + hb
        out = y + ((hA / 2) @ ((hA / 3) @ ((hA / 4) @ d + d) + d) + d)
        return off_layout(stages[1:] + [out], cfg)

    return apply


def held_term_holds(y, target, cfg):
    """The best-switch term at y equals, in bits, the term of a held target
    (None: everybody stays, term +0.0): the response check's test."""
    best = switch_gains(y, cfg).max(axis=-1)
    term = np.where(best > SWITCH_TOL, best, 0.0)
    if target is None:
        held = np.zeros(y.shape)
    else:
        held = y[np.arange(cfg.n)[:, None], target] - y - cfg.fee_B[np.arange(cfg.m), target]
    return np.array_equal(term.view(np.int64), held.view(np.int64))


def backward_loop(gT, x_path, controls, h, cfg, inputs=None):
    """integrate_backward as an rk4_step loop over -hjb_rhs in the reversed clock.

    controls: one target matrix or None per step, or "optimizing" for the best
    response at every stage.  Returns the nodes' g and each step's first-stage
    control, which sits on the step's starting node.  A list given as inputs
    collects every stage's input, four a step, from the step next to T on.
    """
    gs, firsts = [np.asarray(gT, dtype=float)], []
    for k in reversed(range(len(x_path) - 1)):
        g, u = stage_step(gs[-1], k, x_path, controls, h, cfg, inputs)
        gs.append(g)
        firsts.append(u)
    return np.array(gs[::-1]), firsts[::-1]


def stage_step(g, k, x_path, controls, h, cfg, inputs=None):
    """backward_loop's step k from g, an rk4_step of -hjb_rhs: (output,
    first-stage control)."""
    optimizing = isinstance(controls, str)
    x_mid = 0.5 * (x_path[k] + x_path[k + 1])
    stage_u = []

    def f(y):
        if inputs is not None:
            inputs.append(y)
        stage_u.append(optimal_control(y, cfg) if optimizing else controls[k])
        return -hjb_rhs(y, x_mid, stage_u[-1], cfg)
    return rk4_step(f, g, h), stage_u[0]


def folded_steps(gs, k, x_path, h, cfg, held, built, starts):
    """The folded steps an optimizing pass may give for step k, from its own
    nodes gs: a list of (output, start), start None for a Horner step.

    A response run holds the best response at its first node, everybody
    staying bare where 0 <= lam < inf (not -0.0).  On a held run (held: its
    length, 0 off one) a bare response is a map of n rows, and a target one
    of nm rows where kinetics.flat_operators(cfg) holds; a map of `rows`
    rows needs a held run of rows**2 steps.  A map step's output is node s
    - k of the run from node s, P @ gs[s] + o (map_power), s either k + 1,
    a run starting at the step, or one of starts, the runs that step k + 1
    took.  Any other affine response, bare or flat, gives the Horner step
    from gs[k + 1] (horner_step), under the response at gs[k + 1].  Either
    is a candidate only where the best switch keeps the held response's
    term at the step's input and stage inputs, rk4_step's from gs[k + 1]
    on the run's operators.  Targets outside
    flat_operators give none.  built keeps maps by mean node and target.
    """
    n, m = cfg.n, cfg.m
    x_mid = 0.5 * (x_path[k] + x_path[k + 1])
    bare = math.copysign(1.0, cfg.lam) > 0.0 and cfg.lam < np.inf
    flat = kinetics.flat_operators(cfg)

    def response(g):
        u = optimal_control(g, cfg)
        return None if bare and (u == np.arange(m)).all() else u

    def holds(ys, target):
        return all(held_term_holds(y, target, cfg) for y in ys)

    target = response(gs[k + 1])
    if target is not None and not flat:
        return []
    if not held or held < (n if target is None else n * m) ** 2:
        Y = horner_step(x_mid, target, h, cfg)(gs[k + 1])
        return [(Y[3], None)] if holds(Y[:3], target) else []
    folds = []
    for s in starts | {k + 1}:
        target = response(gs[s])
        if target is not None and not flat:
            continue
        key = x_mid.tobytes(), None if target is None else target.tobytes()
        if key not in built:
            built[key] = step_map(x_mid, target, h, cfg), []
        (Q, q), powers = built[key]
        if holds([gs[k + 1], *horner_step(x_mid, target, h, cfg)(gs[k + 1])[:3]], target):
            P, o = map_power(Q, q, s - k, powers)
            folds.append((off_layout(P @ on_layout(gs[s], q) + o, cfg)[0], s))
    return folds


def replay(traj, x_path, h, cfg):
    """Each step of an optimizing pass replayed from the pass's own nodes:
    every step equals in bits its stage step from node k + 1 or one of
    folded_steps, and a folded one only where folded_steps gives it.
    Returns how many equal a folded step alone, and how many equal one at
    all: a folded step whose bits its stage step gives too, or a back-off
    step that the pass took by the best switch where a folded step would
    have held."""
    held, built = held_run_lengths(x_path, cfg), {}
    alone = either = 0
    starts = set()   # the map runs that step k + 1 continued or started
    for k in reversed(range(len(x_path) - 1)):
        got = traj.g[k].view(np.int64)
        stage = stage_step(traj.g[k + 1], k, x_path, "optimizing", h, cfg)[0]
        folds = folded_steps(traj.g, k, x_path, h, cfg, held[k], built, starts)
        matched = [s for out, s in folds if np.array_equal(got, out.view(np.int64))]
        starts = {s for s in matched if s is not None}
        by_fold = bool(matched)
        by_stage = np.array_equal(got, stage.view(np.int64))
        assert by_fold or by_stage, k
        alone += by_fold and not by_stage
        either += by_fold
    return alone, either


def assert_replays(best, x_path, h, cfg):
    """An optimizing pass against the reference steps one by one (replay):
    the steps only a folded step gives are at most the pass's map and
    Horner steps, and those at most the steps a folded step gives at all;
    and u[k] is the best response at node k, every node across block edges."""
    alone, either = replay(best, x_path, h, cfg)
    assert alone <= best.meta["map_steps"] + best.meta["horner_steps"] <= either
    assert np.array_equal(steps_of(best.u), [optimal_control(g, cfg) for g in best.g[:-1]])


def test_integrate_backward_equals_rk4_loop_over_hjb_rhs():
    blocks, flat_steps = [], {True: 0, False: 0}
    for cfg, x0, rng, steps in stage_cases():
        h = 1.0 / steps
        blocks.append(steps / _block_steps(cfg))
        x_path = integrate_forward(x0, None, 0.0, 1.0, h, cfg).x
        gT = rng.normal(size=(cfg.n, cfg.m))
        stack = np.array([random_control(cfg.n, cfg.m, rng) for _ in range(steps)])
        fixed = integrate_backward(gT, x_path, 0.0, 1.0, h, cfg,
                                   control=Control.of_steps(stack))
        assert np.array_equal(fixed.g, backward_loop(gT, x_path, stack, h, cfg)[0])
        free = integrate_backward(gT, x_path, 0.0, 1.0, h, cfg)
        assert np.array_equal(free.g, backward_loop(gT, x_path, [None] * steps, h, cfg)[0])
        # the optimizing pass: step by step the reference loop's folded or
        # stage steps in bits, and within rounding of the stage loop; its
        # held targets take flat Horner steps where kinetics.flat_operators holds
        best = integrate_backward(gT, x_path, 0.0, 1.0, h, cfg, mode="optimizing")
        assert_replays(best, x_path, h, cfg)
        assert_near(best.g, backward_loop(gT, x_path, "optimizing", h, cfg)[0])
        flat_steps[kinetics.flat_operators(cfg)] += best.meta["flat_steps"]
    assert min(blocks[-2:]) > 5
    assert flat_steps[True] > 0 and flat_steps[False] == 0


def test_constant_runs_reuse_one_operator_until_the_nodes_change(monkeypatch):
    # each piece of a three-piece control settles on its own fixed point, bit
    # for bit, part way through the piece, so held runs of about 270 steps
    # alternate with moving steps.  With interaction on, the two fixed points
    # give different payoff operators, so an operator reused past a change of
    # node bits would show; without it the operator would not depend on the
    # nodes.  Each held run is one block, past 8 KB of nodes, and at 4 and
    # 8 KB each moving stretch spans many operator blocks (at 4 KB the node
    # compare also takes two chunks); at the default a held run is still at
    # least one operator block long, so it shares one operator.
    # Near T the optimizing pass's best response changes within a few steps,
    # which it reruns; elsewhere it holds one response over long runs.
    # The optimizing pass's held responses go through step maps' powers:
    # bare, and under targets where kinetics.flat_operators holds, as on
    # 3 x 2 at every BLOCK_BYTES; its moving stretches take bare Horner
    # steps.  Step by step it is the reference steps in bits (replay), and
    # the stage loop within rounding; the fixed passes keep their stages.
    # A map node's last bits depend on where its run started, and run
    # starts on BLOCK_BYTES, so across the three the payoffs agree within
    # 1e-14 of max |g|, not in bits.
    rng = np.random.default_rng(1)
    cfg = make_config(3, 2, rng, balanced_evo=False, fine=0.3, fee_switch=1.5, delta=0.3)
    x0 = np.random.default_rng(11).dirichlet(np.ones(6)).reshape(3, 2)
    stay, circulate = np.tile(np.arange(2), (3, 1)), np.array([[1, 1], [0, 1], [0, 0]])
    steps, h = 1200, 0.4
    fwd = integrate_forward(x0, Control([0, 400, 800], [stay, circulate, stay], steps),
                            0.0, steps * h, h, cfg)
    x_path, bits = fwd.x, fwd.x.view(np.int64)
    held = np.concatenate(([False], (bits[1:] == bits[:-1]).all(axis=(1, 2)), [False]))
    runs = np.flatnonzero(held[1:] != held[:-1]).reshape(-1, 2)
    assert [b for a, b in runs] == [400, 800, 1200] and (runs[:, 0] % 400 > 100).all()
    lengths = runs[:, 1] - runs[:, 0]
    assert ((1 << 13) // (8 * cfg.n * cfg.m) < lengths).all()   # past 8 KB of nodes
    assert (bits[400] != bits[800]).any() and cfg.delta_int > 0.0
    gT = rng.normal(size=(cfg.n, cfg.m))
    stack = np.array([random_control(cfg.n, cfg.m, rng) for _ in range(steps)])
    fixed_g = backward_loop(gT, x_path, stack, h, cfg)[0]
    free_g = backward_loop(gT, x_path, [None] * steps, h, cfg)[0]
    inputs = []
    stage_g, firsts = backward_loop(gT, x_path, "optimizing", h, cfg, inputs)
    changing = steps_changing(inputs, cfg)
    assert 0 < sum(changing) < 10 and changing[0] and len(Control.of_steps(firsts).starts) > 1
    best_g = []
    for block in (1 << 12, 1 << 13, BLOCK_BYTES):
        monkeypatch.setattr(hbmfg.hjb, "BLOCK_BYTES", block)
        assert _block_steps(cfg) <= lengths.min()   # each held run shares one operator
        fixed = integrate_backward(gT, x_path, 0.0, steps * h, h, cfg,
                                   control=Control.of_steps(stack))
        assert np.array_equal(fixed.g, fixed_g) and fixed.meta["map_steps"] == 0
        free = integrate_backward(gT, x_path, 0.0, steps * h, h, cfg)
        assert np.array_equal(free.g, free_g) and free.meta["map_steps"] == 0
        best = integrate_backward(gT, x_path, 0.0, steps * h, h, cfg, mode="optimizing")
        assert_replays(best, x_path, h, cfg)
        assert_near(best.g, stage_g)
        # each held run has an operator of its own, so maps of its own
        assert 0 < best.meta["map_steps"] <= best.meta["held_steps"]
        assert best.meta["maps"] >= len(runs)
        assert np.array_equal(steps_of(best.u), [optimal_control(stage_g[0], cfg)] + firsts[:-1])
        assert_reruns(best, changing)
        best_g.append(best.g)
    assert np.abs(np.array(best_g) - best_g[-1]).max() <= 1e-14 * np.abs(best_g[-1]).max()


def assert_near(g, stage):
    """g within 1e-12 * max(1, max |g|) of the stage loop's: Horner steps and
    a held run's map powers round otherwise than the stages do."""
    scale = max(1.0, float(np.abs(stage).max()))
    assert np.abs(g - stage).max() <= 1e-12 * scale


def steps_changing(inputs, cfg):
    """Each step's flag, from the reference loop's stage inputs, four a step
    from the step next to T on: the best responses at its four stage inputs,
    the loop's per-stage controls, are not all equal.  Without exact ties,
    no held response plays such a step, so the pass reruns it."""
    us = np.array([optimal_control(y, cfg) for y in inputs]).reshape(-1, 4, cfg.n, cfg.m)
    return (us != us[:, :1]).any(axis=(1, 2, 3)).tolist()


def assert_reruns(best, changing):
    # every step is held or rerun; each changing step is rerun, and isolated
    # changes cost at most a back-off of four direct steps each
    assert best.meta["held_steps"] + best.meta["rerun_steps"] == len(changing)
    assert sum(changing) <= best.meta["rerun_steps"] <= 5 * sum(changing)


def test_cone_skip_equals_rk4_loop_over_hjb_rhs():
    # theorem_config's fees exceed every payoff spread, so everybody stays and
    # every step is held bare; the example's cheaper fees bound the spread
    # only on its last nodes near T, so the pass starts inside the cone,
    # leaves it and reruns the steps on which the best response changes
    thm = theorem_config(3, 3, np.random.default_rng(7))
    for cfg, steps, everywhere in ((thm, 80, True), (read_config(EXAMPLE), 60, False)):
        h = 3.0 / steps
        x0 = np.full((cfg.n, cfg.m), 1.0 / (cfg.n * cfg.m))
        x_path = integrate_forward(x0, None, 0.0, 3.0, h, cfg).x
        gT = np.zeros((cfg.n, cfg.m))
        best = integrate_backward(gT, x_path, 0.0, 3.0, h, cfg, mode="optimizing")
        inputs = []
        g = backward_loop(gT, x_path, "optimizing", h, cfg, inputs)[0]
        assert_replays(best, x_path, h, cfg)
        assert_near(best.g, g)
        changing = steps_changing(inputs, cfg)
        assert_reruns(best, changing)
        assert not any(changing) if everywhere else 0 < sum(changing) < steps // 10
        assert not changing[0] and not changing[-1]
    # lam = inf makes the switch term inf * 0.0 = nan even inside the cone,
    # so no step may run bare: the first step, next to T, fails
    blowup = dataclasses.replace(cfg, lam=np.inf)
    with np.errstate(invalid="ignore"):
        assert np.isnan(backward_loop(gT, x_path[-2:], "optimizing", h, blowup)[0][0]).all()
    with pytest.raises(HjbError, match=rf"non-finite payoff at t={3.0 - h:.6g};"):
        integrate_backward(gT, x_path, 0.0, 3.0, h, blowup, mode="optimizing")
    # from a gT whose last column tops the rest by more than the fees, the
    # theorem config's pass starts outside the cone and decays back into it
    h = 3.0 / 80
    x_path = integrate_forward(np.full((3, 3), 1.0 / 9.0), None, 0.0, 3.0, h, thm).x
    gT = np.zeros((3, 3))
    gT[:, 2] = thm.switch_fee.min() + 2.0
    best = integrate_backward(gT, x_path, 0.0, 3.0, h, thm, mode="optimizing")
    inputs = []
    g, firsts = backward_loop(gT, x_path, "optimizing", h, thm, inputs)
    assert_replays(best, x_path, h, thm)
    assert_near(best.g, g)
    changing = steps_changing(inputs, thm)
    assert_reruns(best, changing)
    assert 0 < sum(changing) and not changing[0] and not changing[-1]
    assert (firsts[-1] != np.arange(3)).any() and (firsts[0] == np.arange(3)).all()
    assert best.meta["cone_worst"] == switch_gains(best.g, thm).max() > SWITCH_TOL


def tied_config():
    """Columns 1 and 2 alike in rates, rewards and fees, without interaction:
    the payoff flow keeps them equal bit for bit, so from column 0 the two
    switches tie on gain.  Column 1 dominates, so column 0 comes to switch."""
    cfg = make_config(3, 3, np.random.default_rng(3), with_evo=False, fee_switch=0.2,
                      delta=0.3, b=1)
    cols = [0, 1, 1]
    return dataclasses.replace(cfg, q_up=cfg.q_up[:, cols], q_down=cfg.q_down[:, cols],
                               w=cfg.w[:, cols])


def fee_ordered_config():
    """From column 0 a switch costs 0.1 into column 1 and 0.5 into column 2,
    and columns 1 and 2 earn alike, without interaction.  From a terminal
    payoff whose column 2 tops column 1 by 1.5, the best switch from column
    0 moves from column 2 to column 1 once that lead decays below 0.4, while
    column 2 keeps each level's largest payoff."""
    cfg = make_config(3, 3, np.random.default_rng(3), with_evo=False, delta=0.3)
    return dataclasses.replace(cfg, fee_B=np.array([[0.0, 0.1, 0.5], [0.3, 0.0, 0.3],
                                                    [0.3, 0.3, 0.0]]),
                               w=np.tile([0.5, 1.0, 1.0], (3, 1)))


def test_held_runs_equal_rk4_loop_over_hjb_rhs(monkeypatch):
    # the optimizing pass against the reference loop, step by step in bits
    # (replay), at 4 KB, 8 KB and the default BLOCK_BYTES (response runs of at most 7, 14
    # and 227 steps on 3 x 3; 1, 1 and 20 on 10 x 10):
    # - the example from the uniform start: near T, runs fail their check at
    #   their first, a middle and their last step;
    # - tied_config: the held target is the first of two tied on gain;
    # - fee_ordered_config: the best target changes to one with a cheaper
    #   fee and a smaller payoff, which only the column's smallest fee bounds;
    # - lam = inf: the same HjbError at the same t;
    # - a 10 x 10 path whose best response changes on every step: every step
    #   is rerun, and the runs that fail at their first step, each one held
    #   step wasted, come ever further apart.
    # The uniform start is a fixed point of the 3 x 3 paths, so at 4 KB and
    # 8 KB each path is one held run (at the default, shorter than an
    # operator block, none): its all-stay steps near T go through a bare
    # step map's powers, and fee_ordered_config's 120 steps, past 9**2,
    # through target maps' powers.  The 3 x 3 paths' other held targets take
    # flat Horner steps, as the reference steps do, step by step; every case
    # is also within rounding of the stage loop.
    checks = []   # (steps, steps kept) of every response run's check
    real = hbmfg.hjb._best_response

    def recording(cfg):
        gain, respond, check = real(cfg)

        def logged(Y, held):
            checks.append((len(Y), check(Y, held)))
            return checks[-1][1]

        return gain, respond, logged

    monkeypatch.setattr(hbmfg.hjb, "_best_response", recording)
    example, tie, fees = read_config(EXAMPLE), tied_config(), fee_ordered_config()
    ten, x10, _, _ = stage_cases()[-2]
    uniform = np.full((3, 3), 1.0 / 9.0)
    cases = {"example": (example, np.zeros((3, 3)), uniform, 3.0, 60),
             "tie": (tie, np.zeros((3, 3)), uniform, 3.0, 60),
             "fees": (fees, np.tile([0.0, 0.5, 2.0], (3, 1)), uniform, 6.0, 120),
             "changing": (ten, 3.0 * np.random.default_rng(5).normal(size=(10, 10)), x10,
                          16.0, 40)}
    refs = {}   # the stage loop's
    for name, (cfg, gT, x0, T, steps) in cases.items():
        x_path = integrate_forward(x0, None, 0.0, T, T / steps, cfg).x
        inputs = []
        g, firsts = backward_loop(gT, x_path, "optimizing", T / steps, cfg, inputs)
        refs[name] = x_path, g, [optimal_control(g[0], cfg)] + firsts[:-1], inputs
    changing = steps_changing(refs["changing"][3], ten)
    assert all(changing) and len(changing) == 40
    g = refs["tie"][1]
    gains = switch_gains(g, tie)
    assert np.array_equal(g[..., 1], g[..., 2]) and (gains[..., 0, 1] > SWITCH_TOL).any()
    assert (np.array(refs["tie"][2])[..., 0] == 1).any()
    g, us = refs["fees"][1:3]
    assert {1, 2} <= set(np.array(us)[:, :, 0].ravel()) and (g[..., 2] > g[..., 1]).all()
    blowup = dataclasses.replace(example, lam=np.inf)
    with np.errstate(invalid="ignore"):
        g = backward_loop(np.zeros((3, 3)), refs["example"][0], "optimizing", 0.05, blowup)[0]
    first = max(np.flatnonzero(~np.isfinite(g).all(axis=(1, 2))))
    folded = set()   # the cases whose pass took map or flat steps, by block
    for block in (1 << 12, 1 << 13, BLOCK_BYTES):
        monkeypatch.setattr(hbmfg.hjb, "BLOCK_BYTES", block)
        for name, (cfg, gT, x0, T, steps) in cases.items():
            x_path, stage_g = refs[name][:2]
            checks.clear()
            best = integrate_backward(gT, x_path, 0.0, T, T / steps, cfg, mode="optimizing")
            assert_replays(best, x_path, T / steps, cfg)
            assert_near(best.g, stage_g)
            for how in ("map", "flat"):
                if best.meta[how + "_steps"]:
                    folded.add((how, block, name))
            failed = [(length, kept) for length, kept in checks if kept < length]
            if name == "example":
                assert {"first" if kept == 0 else "last" if kept == length - 1 else "middle"
                        for length, kept in failed} == {"first", "middle", "last"}
            if name == "changing":
                assert best.meta["rerun_steps"] == steps
                assert sum(length - kept for length, kept in failed) <= 1 + math.log(steps, 4)
        with pytest.raises(HjbError, match=rf"non-finite payoff at t={first * 0.05:.6g};"):
            integrate_backward(np.zeros((3, 3)), refs["example"][0], 0.0, 3.0, 0.05, blowup,
                               mode="optimizing")
    small = (1 << 12, 1 << 13)
    assert folded == ({("map", block, name) for block in small
                       for name in ("example", "tie", "fees")}
                      | {("flat", block, name) for block in (*small, BLOCK_BYTES)
                         for name in ("example", "tie")} | {("flat", BLOCK_BYTES, "fees")})


def test_map_payoff_overflow_takes_the_one_non_finite_rule(monkeypatch):
    # held uniform occupations, rewards (and fees) scaled up, so held runs of
    # 400 steps, past 9**2, step by maps.  The rule: a map step whose output
    # is not finite is rerun by stages with the best switch, and a stage
    # step's non-finite output raises HjbError at its node.
    # - the example x 1e307, T = 20, and x 3e306: the target maps' outputs
    #   stay finite, but their stage inputs, rk4_step's from the map's
    #   nodes, overflow where the stage loop's first do, at node 292 and at
    #   node 28, so the check fails there and the pass takes the best switch
    #   by stages, which overflow too: HjbError at the stage loop's node;
    # - theorem_config with rewards x 1e307 and no switch affordable (fees
    #   inf), T = 80: a bare map's outputs overflow at node 47, and the check
    #   passes them (every gain nan, so everybody stays); the rule reruns that
    #   step by stages, which overflow too: HjbError at 47, the stage loop's
    #   node 356.
    example = read_config(EXAMPLE)
    thm = theorem_config(3, 3, np.random.default_rng(7))
    unaffordable = np.where(np.eye(3, dtype=bool), 0.0, np.inf)
    cases = [(dataclasses.replace(example, w=example.w * scale, fee_B=example.fee_B * scale,
                                  fee_H=example.fee_H * scale), 20.0, node, first)
             for scale, node, first in ((1e307, 292, 292), (3e306, 28, 28))]
    cases.append((dataclasses.replace(thm, w=thm.w * 1e307, fee_B=unaffordable), 80.0, 47, 356))
    uniform = np.full((3, 3), 1.0 / 9.0)
    x_path = np.broadcast_to(uniform, (401, 3, 3))
    gT = np.zeros((3, 3))
    finite = []   # whether each stage step's output is finite, in order
    real = hbmfg.hjb.rk4_step

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        finite.append(bool(np.isfinite(out).all()))
        return out

    monkeypatch.setattr(hbmfg.hjb, "rk4_step", spy)
    for cfg, T, node, stage_first in cases:
        h = T / 400
        assert kinetics.flat_operators(cfg)
        with np.errstate(all="ignore"):
            g = backward_loop(gT, x_path, "optimizing", h, cfg)[0]
        assert max(np.flatnonzero(~np.isfinite(g).all(axis=(1, 2)))) == stage_first
        finite.clear()
        with pytest.raises(HjbError, match=rf"non-finite payoff at t={node * h:.6g};"):
            integrate_backward(gT, uniform, 0.0, T, h, cfg, mode="optimizing")
        # the stage steps overflow from one step to the last: the pass raises
        # at the end of that run, with no finite step after an overflow
        assert False in finite and not any(finite[finite.index(False):])


def test_flat_payoff_overflow_raises_at_the_stage_loops_t():
    # the example's converged path, its rewards and fees scaled to 1e307:
    # the payoff overflows at t = 4.6, where the pass had taken flat steps on
    # the moving path; it raises HjbError at the first non-finite node of the
    # stage loop, also with every warning an error (-W error)
    example = read_config(EXAMPLE)
    x0 = np.full((3, 3), 1.0 / 9.0)
    u = solve_mfg(x0, np.zeros((3, 3)), 10.0, 0.05, example).trajectory.u
    x_path = integrate_forward(x0, u, 0.0, 10.0, 0.05, example).x
    cfg = dataclasses.replace(example, w=example.w * 1e307, fee_B=example.fee_B * 1e307,
                              fee_H=example.fee_H * 1e307)
    assert kinetics.flat_operators(cfg)
    gT = np.zeros((3, 3))
    with np.errstate(all="ignore"):
        g = backward_loop(gT, x_path, "optimizing", 0.05, cfg)[0]
    first = max(np.flatnonzero(~np.isfinite(g).all(axis=(1, 2))))
    assert first == 92
    after = integrate_backward(gT, x_path[first + 1:], (first + 1) * 0.05, 10.0, 0.05, cfg,
                               mode="optimizing")
    assert after.meta["flat_steps"] > 0
    with warnings.catch_warnings():
        for action in ("default", "error"):
            warnings.simplefilter(action)
            with pytest.raises(HjbError, match=rf"non-finite payoff at t={first * 0.05:.6g};"):
                integrate_backward(gT, x_path, 0.0, 10.0, 0.05, cfg, mode="optimizing")


def test_held_run_check_compares_bits():
    # with free switches, a held switch whose gain falls to -0.0 gives the
    # term -0.0 where the best switch, no longer above SWITCH_TOL, gives
    # +0.0: equal under ==, yet k - lam * term differs in the sign of a zero
    cfg = make_config(2, 2, np.random.default_rng(4), fee_switch=0.0)
    _, respond, check = hbmfg.hjb._best_response(cfg)
    Y = np.zeros((2, 4, 2, 2, 1))   # two steps' stage inputs, by column
    Y[0, :, 1, 0] = 1.0   # column 1 tops column 0 at level 0: switch 0 -> 1
    Y[1, 1:, 1, 0] = -0.0
    held = respond(Y[0, 0])
    assert held[0] is not None and held[1].tolist() == [2, 1, 2, 3]
    assert check(Y[:1], held) == 1 and check(Y, held) == 1
    Y[1, 1:, 1, 0] = 0.0
    assert check(Y, held) == 2
    # an all-stay response runs bare only where lam * 0.0 is +0.0
    for lam in (0.0, 1.0, -0.0, -1.0, np.inf, np.nan):
        respond = hbmfg.hjb._best_response(dataclasses.replace(cfg, lam=lam))[1]
        assert (respond(Y[1, 0])[0] is None) == (lam in (0.0, 1.0) and math.copysign(1, lam) > 0)


def test_node_pass_equals_a_node_by_node_scan(monkeypatch):
    # the 10 x 10 case's gains alone fill several node blocks; profitable
    # switches start after the first block, the largest well before the last.
    # In the second block the best gains lie in (0, SWITCH_TOL], in the third
    # they are exactly 0: both keep every target without the argmax
    cfg = stage_cases()[-2][0]
    size = BLOCK_BYTES // (8 * cfg.n * cfg.m * (cfg.m + 3))   # nodes per block
    gs = np.zeros((100, cfg.n, cfg.m))
    gs[size:2 * size, 5, 3] = cfg.fee_B[0, 3] + 4e-13
    gs[2 * size:3 * size, 1, 6] = cfg.fee_B[0, 6]
    gs[40, 3, 7] = 5.0
    gs[70:, 2, 4] = 1.0
    gs[90:, 6] = 0.1 * np.arange(cfg.m)
    assert len(gs) * 8 * cfg.n * cfg.m ** 2 > 3 * BLOCK_BYTES
    want_u, want_worst = node_by_node(gs, cfg)
    blocks, argmax, best_targets = [], [], hbmfg.hjb._best_targets
    monkeypatch.setattr(hbmfg.hjb, "switch_gains",
                        lambda g, c: blocks.append(len(g)) or switch_gains(g, c))
    monkeypatch.setattr(hbmfg.hjb, "_best_targets",
                        lambda gains, best: argmax.append(len(blocks) - 1)
                        or best_targets(gains, best))
    u, worst = _node_pass(gs, cfg)
    npt.assert_array_equal(u, want_u)
    assert same_bits(worst, want_worst) and worst == 5.0 - cfg.fee_B[0, 7]
    assert sum(blocks) == len(gs) and set(blocks[:-1]) == {size}
    assert argmax == [b for b in range(len(blocks))
                      if switch_gains(gs[b * size:(b + 1) * size], cfg).max() > SWITCH_TOL]
    assert argmax[0] == 40 // size > 2
    assert 0.0 < switch_gains(gs[size:2 * size], cfg).max() <= SWITCH_TOL
    assert switch_gains(gs[2 * size:3 * size], cfg).max() == 0.0
    assert (u[:3 * size] == np.arange(cfg.m)).all()


def node_by_node(gs, cfg):
    """_node_pass's results from switch_gains and optimal_control, one node at a time."""
    worst = float("-inf")
    for g in gs:
        worst = max(worst, float(switch_gains(g, cfg).max()))
    return [optimal_control(g, cfg) for g in gs], worst


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).view(np.int64) == np.float64(b).view(np.int64)


def test_node_pass_builds_no_gain_tensor_at_most_switch_tol(monkeypatch):
    # the pair pass decides: a largest gain at most SWITCH_TOL (below 0,
    # exactly 0.0, or in (0, SWITCH_TOL]) returns every target staying
    # without the block pass, which alone calls switch_gains; a largest gain
    # above SWITCH_TOL falls through
    cfg, _, rng, _ = stage_cases()[-2]
    one = stage_cases()[9][0]
    assert cfg.m == 10 and one.m == 1
    monkeypatch.setattr(hbmfg.hjb, "BLOCK_BYTES", 1 << 13)
    calls = []
    monkeypatch.setattr(hbmfg.hjb, "switch_gains",
                        lambda g, c: calls.append(len(g)) or switch_gains(g, c))
    below = rng.uniform(0.0, 0.1, size=(100, cfg.n, cfg.m))
    below[83, 4, 7] = 0.15   # the largest gain sits in a late row block
    zero, tiny, above = np.zeros((3, 100, cfg.n, cfg.m))
    zero[50, 1, 6] = cfg.fee_B[0, 6]
    tiny[50, 5, 3] = cfg.fee_B[0, 3] + 4e-13
    above[50, 5, 3] = cfg.fee_B[0, 3] + 4e-12
    assert len(below) * cfg.n > 3 * (1 << 13) // (16 * cfg.m)   # rows over pair blocks
    for c, gs, shortcut in ((cfg, below, True), (one, rng.normal(size=(100, one.n, 1)), True),
                            (cfg, zero, True), (cfg, tiny, True), (cfg, above, False)):
        want_u, want_worst = node_by_node(gs, c)
        calls.clear()
        u, worst = _node_pass(gs, c)
        assert (not calls) == shortcut
        npt.assert_array_equal(u, want_u)
        assert u.dtype == np.uint8 and u.shape == gs.shape
        assert same_bits(worst, want_worst)
        assert c.m > 1 or worst == float("-inf")
    assert worst > SWITCH_TOL and u[50, 5, 3] == 3 and (u[:50] == np.arange(cfg.m)).all()
    assert node_by_node(below, cfg)[1] == switch_gains(below[83], cfg).max() < 0.0
    assert node_by_node(zero, cfg)[1] == 0.0
    assert 0.0 < node_by_node(tiny, cfg)[1] <= SWITCH_TOL


def test_step_maps_give_an_rk4_step_and_its_stage_inputs():
    # on a held run's operator pair, _step_map applied to a payoff gives an
    # RK4 step's output under -hjb_rhs within rounding, and _stage_inputs
    # from the same payoff its three stage inputs, bare and under a target;
    # the test's own step_map gives the map in bits
    rng = np.random.default_rng(12)
    cfg = make_config(3, 2, rng, balanced_evo=False, fine=0.3, lam=1.5, delta=0.3)
    x, h = random_simplex(3, 2, rng), 0.05
    M, c = (a[0] for a in hbmfg.hjb._payoff_operators(x[None], cfg))
    for target in (None, np.array([[1, 1], [0, 1], [0, 0]])):
        A, b = M, c
        if target is not None:
            cells, fee = hbmfg.hjb._target_gains(cfg)(target)[1:]
            A, b = hbmfg.hjb._flat_operator(M, c, cells, fee, cfg.lam)
        Q, q = hbmfg.hjb._step_map(A, b, -h)
        for g in rng.normal(size=(3, 3, 2)):
            G = np.ascontiguousarray(g.T).reshape(q.shape)
            S = np.empty((1, 3, *q.shape))
            hbmfg.hjb._stage_inputs(G[None], S, rk4_scalars(-h), A, b)
            Y = np.concatenate([S[0], [Q @ G + q]]).reshape(4, 2, 3).transpose(0, 2, 1)
            stages = []

            def f(y):
                stages.append(y)
                return -hjb_rhs(y, x, target, cfg)
            stages.append(rk4_step(f, g, h))
            assert np.abs(Y - np.array(stages[1:])).max() <= 1e-14 * np.abs(g).max()
            Qt, qt = step_map(x, target, h, cfg)
            assert np.array_equal(Q, Qt) and np.array_equal(q, qt)


def random_affine_flows(rng, steps):
    """Random operator stacks A and b of steps flows, by column (m, n, n)
    and flat (nm, nm), with a payoff column y of each layout: (A, b, y) per
    layout.  Each A is I plus noise whose spectrum lies within 0.6 of 0, so
    that, like the payoff operators, it decays in the reversed clock."""
    flows = []
    for shape in ((3, 4, 4), (12, 12)):
        rows = shape[-1]
        A = np.eye(rows) + 0.3 * rng.normal(size=(steps, *shape)) / np.sqrt(rows)
        flows.append((A, rng.normal(size=(steps, *shape[:-1], 1)),
                      rng.normal(size=(*shape[:-1], 1))))
    return flows


def test_horner_steps_equal_rk4_steps_of_the_affine_slope():
    # each Horner step of a run, step r by A[r] and b[r] or every step by one
    # operator, is rk4_step of the slope A @ y + b from the same input,
    # within 1e-15 * max |y|, by column and flat, with the pass's reversed step
    rng = np.random.default_rng(43)
    h = -0.05
    for A, b, y in random_affine_flows(rng, 6):
        for ops in ((A, b), (A[:1], b[:1])):
            nodes = np.empty((7, *y.shape))
            nodes[0] = y
            hbmfg.hjb._horner_run(*ops, np.array(h), list(nodes))
            for r in range(6):
                j = r if len(ops[0]) > 1 else 0
                want = rk4_step(lambda z: ops[0][j] @ z + ops[1][j], nodes[r], h)
                assert np.abs(nodes[r + 1] - want).max() <= 1e-15 * np.abs(nodes[r]).max()


def test_map_powers_equal_a_sequential_map_loop():
    # a held run's nodes P[r] @ G + o[r], the powers extended as far as
    # doubling runs reach (1, 2, 4, ... and the 3 x 3 run cap of 227 steps),
    # equal a loop of the step map, G <- Q @ G + q, within 1e-13 of
    # max |G|, by column and flat
    rng = np.random.default_rng(44)
    for A, b, y in random_affine_flows(rng, 1):
        Q, q = hbmfg.hjb._step_map(A[0], b[0], rk4_scalars(-0.05))
        P, o = np.empty((228, *Q.shape)), np.empty((228, *q.shape))
        P[0], o[0], P[1], o[1] = np.eye(Q.shape[-1]), 0.0, Q, q
        have = 1
        for want in (1, 2, 4, 8, 16, 32, 64, 128, 227):
            have = hbmfg.hjb._extend_powers(P, o, have, want)
        assert have == 227
        G, nodes = y, [y]
        for _ in range(227):
            G = Q @ G + q
            nodes.append(G)
        nodes = np.array(nodes)
        scale = np.abs(nodes).max()
        assert np.abs(P @ y + o - nodes).max() <= 1e-13 * scale
        assert np.array_equal(P[1] @ y + o[1], nodes[1])


def test_batched_stage_inputs_equal_rk4_steps_stages():
    # the stage inputs that the response check reads after an affine run,
    # all its steps at once, on one operator a step or one for all, each
    # within rounding of rk4_step's own stages from the same input
    rng = np.random.default_rng(45)
    scalars = rk4_scalars(-0.05)
    for A, b, _ in random_affine_flows(rng, 5):
        Y = rng.normal(size=(5, *b.shape[1:]))
        for ops in ((A, b), (A[:1], b[:1])):
            S = np.empty((5, 3, *b.shape[1:]))
            hbmfg.hjb._stage_inputs(Y, S, scalars, *ops)
            for r, y in enumerate(Y):
                j = r if len(ops[0]) > 1 else 0
                want = np.empty((3, *y.shape))
                rk4_step(lambda z: A[j] @ z + b[j], y, scalars, stages=tuple(want))
                assert np.abs(S[r] - want).max() <= 1e-14 * np.abs(y).max()


def test_held_runs_match_the_oracle(tmp_path, monkeypatch):
    # the optimizing pass on two held runs against perfbench's oracle, which
    # takes the best response at every stage of a plain RK4 loop:
    # - perfbench's seed-1 stay-put config from its stationary start at T = 5,
    #   one held run on which everybody stays: one bare map takes every step;
    # - the example against its first sweep's stationary fill, a held run on
    #   which the best response switches: target maps take its held steps,
    #   and the back-off's direct steps and the reruns take stages
    oracle = load_oracle()
    stayput = stayput_config(tmp_path, monkeypatch)
    example = read_config(EXAMPLE)
    cases = {"stayput": (stayput, read_config(stayput), 5.0, 0.05),
             "example": (EXAMPLE, example, default_horizon(example), default_dt(example))}
    for name, (path, cfg, T, dt) in cases.items():
        x = integrate_forward(Occupation.uniform(cfg.n, cfg.m).x, None, 0.0, T, dt, cfg).x
        steps = len(x) - 1
        assert held_run_lengths(x, cfg).all()
        best = integrate_backward(np.zeros((cfg.n, cfg.m)), x, 0.0, T, dt, cfg,
                                  mode="optimizing")
        want = oracle.integrate_backward(oracle.Generator(oracle.Model.load(path)),
                                         np.zeros(cfg.n * cfg.m), x.reshape(steps + 1, -1), T)
        scale = float(np.abs(want).max())
        assert np.abs(best.g.reshape(steps + 1, -1) - want).max() <= 1e-12 * scale, name
        assert_replays(best, x, dt, cfg)
        if name == "stayput":
            assert best.meta["map_steps"] == steps and best.meta["maps"] == 1
        else:   # a bare map near T, then target maps; held and rerun steps as before
            assert best.meta["map_steps"] == best.meta["held_steps"] == 1243
            assert best.meta["rerun_steps"] == 7 and best.meta["maps"] > 1


def test_held_runs_shorter_than_rows_squared_take_horner_steps(tmp_path, monkeypatch):
    # a bare map of the 10 x 10 stay-put config costs about 10 of its steps
    # to build, and a step as much arithmetic as its stages: a held run of
    # 99 steps takes Horner steps, one of 100 goes through one map's powers.
    # Both are the reference steps in bits (replay), within rounding of the
    # stage loop
    cfg = read_config(stayput_config(tmp_path, monkeypatch))
    gT = np.zeros((cfg.n, cfg.m))
    for steps in (99, 100):
        T = steps * 0.05
        x = integrate_forward(Occupation.uniform(cfg.n, cfg.m).x, None, 0.0, T, 0.05, cfg).x
        assert len(x) == steps + 1 and (held_run_lengths(x, cfg) == steps).all()
        best = integrate_backward(gT, x, 0.0, T, 0.05, cfg, mode="optimizing")
        assert_replays(best, x, 0.05, cfg)
        assert_near(best.g, backward_loop(gT, x, "optimizing", 0.05, cfg)[0])
        if steps < 100:
            assert best.meta["map_steps"] == best.meta["maps"] == 0
            assert best.meta["horner_steps"] == steps
        else:
            assert best.meta["map_steps"] == steps and best.meta["maps"] == 1


def test_integrate_backward_names_the_first_non_finite_step():
    # steps far beyond RK4's stability bound grow g by about 1e8 a step until
    # it overflows; the blocked pass names the step that a step-by-step loop
    # finds, and no RuntimeWarning escapes it
    cfg, x0, rng, _ = stage_cases()[-2]
    steps, h = 80, 40.0
    x_path = np.broadcast_to(x0, (steps + 1, cfg.n, cfg.m))
    gT = rng.normal(size=(cfg.n, cfg.m))
    with np.errstate(over="ignore", invalid="ignore"):
        gs, _ = backward_loop(gT, x_path, [None] * steps, h, cfg)
    first = max(np.flatnonzero(~np.isfinite(gs).all(axis=(1, 2))))
    assert 0 < first < steps - 1
    with pytest.raises(HjbError, match=rf"non-finite payoff at t={first * h:.6g};"):
        integrate_backward(gT, x_path, 0.0, steps * h, h, cfg)


def test_stationary_payoff_dense_cross_check():
    # with delta_int = 0 the stationary payoff solves a dense linear system
    rng = np.random.default_rng(31)
    cfg = make_config(4, 3, rng, db=False, with_evo=False, fine=0.4, delta=0.08)
    wt = effective_rewards(cfg)
    g = np.empty((4, 3))
    for j in range(cfg.m):
        A = column_generator(j, cfg)
        g[:, j] = np.linalg.solve(cfg.delta_dis * np.eye(4) - A.T, wt[:, j])
    # tensors are zero so the occupation argument is inert; any point works
    res = -hjb_rhs(g, np.full((4, 3), 1.0 / 12.0), None, cfg)
    assert np.max(np.abs(res)) < 1e-10
