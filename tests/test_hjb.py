from __future__ import annotations

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from hbmfg import (
    GameConfig,
    HjbError,
    Regime,
    consistency_margin,
    effective_rewards,
    hjb_rhs,
    integrate_backward,
    kinetic_rhs,
    optimal_control,
    stationary_payoff_residual,
    switch_gains,
)
from test_kinetics import column_generator, random_control, random_simplex
from util_configs import make_config


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
        delta=0.1, delta_int=0.0,
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
    npt.assert_allclose(gains[0], [[0.0, 1.0], [-4.0, 0.0]])


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
        delta=0.5, delta_int=0.0,
    )
    traj = integrate_backward([[1.0]], None, 0.0, 2.0, 1e-3, cfg)
    want = 2.0 / 0.5 + (1.0 - 2.0 / 0.5) * np.exp(-0.5 * (2.0 - traj.times))
    npt.assert_allclose(traj.g[:, 0, 0], want, atol=1e-11)


def test_integrate_backward_occupation_provider_forms_agree():
    rng = np.random.default_rng(8)
    cfg = make_config(3, 2, rng, balanced_evo=False, fine=0.2)
    x = random_simplex(3, 2, rng)
    gT = rng.normal(size=(3, 2))
    a = integrate_backward(gT, x, 0.0, 1.0, 0.02, cfg)
    b = integrate_backward(gT, lambda t: x, 0.0, 1.0, 0.02, cfg)
    npt.assert_array_equal(a.g, b.g)
    assert a.times[0] == 0.0 and a.times[-1] == 1.0
    npt.assert_array_equal(a.g[-1], np.asarray(gT))


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
    assert free.u is not None and free.u.shape == (len(free.times) - 1, 3, 3)
    # stored controls are exactly the best responses at the left nodes
    npt.assert_array_equal(free.u, [optimal_control(gk, cfg) for gk in free.g[:-1]])
    # and switching is actually exercised somewhere on the horizon
    assert (free.u != np.arange(3)).any()


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
    res = stationary_payoff_residual(g, np.full((4, 3), 1.0 / 12.0), cfg)
    assert np.max(np.abs(res)) < 1e-10
