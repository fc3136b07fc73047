from __future__ import annotations

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import hbmfg.hjb
from hbmfg import (
    ControlPath,
    GameConfig,
    HjbError,
    Regime,
    consistency_margin,
    effective_rewards,
    hjb_rhs,
    integrate_backward,
    integrate_forward,
    kinetic_rhs,
    optimal_control,
    switch_gains,
)
from hbmfg.hjb import BLOCK_BYTES, _block_steps, _node_pass
from hbmfg.kinetics import rk4_step
from hbmfg.io import read_config
from test_io_cli import EXAMPLE
from test_kinetics import column_generator, random_control, random_simplex, stage_cases
from util_configs import make_config, steps_of, theorem_config


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
    rng = np.random.default_rng(2)
    cfg = make_config(2, 2, rng)  # delta_int = 0.05^2 > 0
    with pytest.raises(HjbError, match="occupation"):
        hjb_rhs(np.zeros((2, 2)), None, None, cfg)


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
                           control=ControlPath.of_steps(np.broadcast_to(u, (50, 3, 2))))
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
        integrate_backward(gT, x, 0.0, 1.0, 0.02, cfg, control=ControlPath.of_steps(stack))


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


def backward_loop(gT, x_path, controls, h, cfg):
    """integrate_backward as an rk4_step loop over -hjb_rhs in the reversed clock.

    controls: one target matrix or None per step, or "optimizing" for the best
    response at every stage.  Returns the nodes' g and each step's first-stage
    control, which sits on the step's starting node.
    """
    gs, firsts = [np.asarray(gT, dtype=float)], []
    for k in reversed(range(len(x_path) - 1)):
        x_mid = 0.5 * (x_path[k] + x_path[k + 1])
        stage_u = []

        def f(y):
            stage_u.append(optimal_control(y, cfg) if isinstance(controls, str)
                           else controls[k])
            return -hjb_rhs(y, x_mid, stage_u[-1], cfg)
        gs.append(rk4_step(f, gs[-1], h))
        firsts.append(stage_u[0])
    return np.array(gs[::-1]), firsts[::-1]


def test_integrate_backward_equals_rk4_loop_over_hjb_rhs():
    blocks = []
    for cfg, x0, rng, steps in stage_cases():
        h = 1.0 / steps
        blocks.append(steps / _block_steps(cfg))
        x_path = integrate_forward(x0, None, 0.0, 1.0, h, cfg).x
        gT = rng.normal(size=(cfg.n, cfg.m))
        stack = np.array([random_control(cfg.n, cfg.m, rng) for _ in range(steps)])
        fixed = integrate_backward(gT, x_path, 0.0, 1.0, h, cfg,
                                   control=ControlPath.of_steps(stack))
        assert np.array_equal(fixed.g, backward_loop(gT, x_path, stack, h, cfg)[0])
        free = integrate_backward(gT, x_path, 0.0, 1.0, h, cfg)
        assert np.array_equal(free.g, backward_loop(gT, x_path, [None] * steps, h, cfg)[0])
        best = integrate_backward(gT, x_path, 0.0, 1.0, h, cfg, mode="optimizing")
        g, firsts = backward_loop(gT, x_path, "optimizing", h, cfg)
        assert np.array_equal(best.g, g)
        # u[k] is the best response at node k, every node across block edges:
        # step k-1's first stage, and t0's own call
        assert np.array_equal(steps_of(best.u), [optimal_control(g[0], cfg)] + firsts[:-1])
    assert min(blocks[-2:]) > 5


def test_cone_skip_equals_rk4_loop_over_hjb_rhs():
    # theorem_config's fees exceed every payoff spread, so every stage skips
    # the maximum; the example's cheaper fees bound the spread only on its
    # last nodes near T, so the pass starts inside the cone and leaves it
    for cfg, steps, everywhere in ((theorem_config(3, 3, np.random.default_rng(7)), 80, True),
                                   (read_config(EXAMPLE), 60, False)):
        h = 3.0 / steps
        x0 = np.full((cfg.n, cfg.m), 1.0 / (cfg.n * cfg.m))
        x_path = integrate_forward(x0, None, 0.0, 3.0, h, cfg).x
        gT = np.zeros((cfg.n, cfg.m))
        best = integrate_backward(gT, x_path, 0.0, 3.0, h, cfg, mode="optimizing")
        g, firsts = backward_loop(gT, x_path, "optimizing", h, cfg)
        assert np.array_equal(best.g.view(np.int64), g.view(np.int64))
        assert np.array_equal(steps_of(best.u), [optimal_control(g[0], cfg)] + firsts[:-1])
        skipped = best.meta["cone_stages"]
        assert skipped == 4 * steps if everywhere else 0 < skipped < 2 * steps
    # lam = inf makes the switch term inf * 0.0 = nan even inside the cone,
    # so no stage may skip it: the first step, next to T, fails
    blowup = dataclasses.replace(cfg, lam=np.inf)
    with np.errstate(invalid="ignore"):
        assert np.isnan(backward_loop(gT, x_path[-2:], "optimizing", h, blowup)[0][0]).all()
    with pytest.raises(HjbError, match=rf"non-finite payoff at t={3.0 - h:.6g};"):
        integrate_backward(gT, x_path, 0.0, 3.0, h, blowup, mode="optimizing")


def test_node_pass_equals_a_node_by_node_scan(monkeypatch):
    # the 10 x 10 case's gains alone fill several node blocks; profitable
    # switches start after the first block, the largest well before the last
    cfg = stage_cases()[-2][0]
    gs = np.zeros((100, cfg.n, cfg.m))
    gs[40, 3, 7] = 5.0
    gs[70:, 2, 4] = 1.0
    gs[90:, 6] = 0.1 * np.arange(cfg.m)
    times = 0.5 * np.arange(100)
    assert len(gs) * 8 * cfg.n * cfg.m ** 2 > 3 * BLOCK_BYTES
    monkeypatch.setattr(hbmfg.hjb, "VIOLATION_CAP", 200)
    u, scan = _node_pass(times, gs, cfg)
    npt.assert_array_equal(u, [optimal_control(g, cfg) for g in gs])
    hits = []
    for t, g in zip(times, gs):
        gains = switch_gains(g, cfg)
        hits += [(float(t), i, a, b, float(gains[i, a, b]))
                 for i, a, b in np.argwhere(gains > 0.0).tolist()]
    assert scan["cone_worst"] == max(h[-1] for h in hits) == 5.0 - cfg.fee_B[0, 7]
    assert scan["violations"] == len(hits) > 200
    assert scan["violations_head"] == hits[:200]


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
