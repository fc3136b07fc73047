from __future__ import annotations

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from hbmfg import (
    GameConfig,
    Occupation,
    SinkRates,
    boundary_tangent_condition,
    default_dt,
    default_horizon,
    integrate_backward,
    integrate_forward,
    rate_ordering_check,
    solve_mfg,
    stationary_solution,
    switch_gains,
    turnpike_metrics,
)
from hbmfg.hjb import SWITCH_TOL
from hbmfg.io import read_config
from test_io_cli import EXAMPLE
from test_kinetics import random_simplex
from util_configs import cycle_config, make_config, steps_of, theorem_config


def test_default_horizon_and_dt():
    cfg = GameConfig(
        n=2, m=2,
        q_up=[[0.5, 2.0], [0.0, 0.0]], q_down=[[0.0, 0.0], [0.5, 2.0]],
        q_up_evo=np.zeros((2, 2, 2)), q_down_evo=np.zeros((2, 2, 2)),
        w=np.ones((2, 2)), fee_B=1.0 - np.eye(2), fee_H=np.zeros(2),
        detailed_balance=True,
    )
    assert default_horizon(cfg) == pytest.approx(100.0)
    dt = default_dt(cfg)
    assert 0 < dt <= 0.05
    assert dt <= 0.5 / 2.5  # fastest outflow: level 2 of column 2
    # sink variant: the drop rates count as pressure rates
    sink = dataclasses.replace(cfg, q_down=np.zeros((2, 2)), detailed_balance=False,
                               q_sink=SinkRates(direct=[[0.0, 0.0], [0.25, 20.0]],
                                                interaction=np.zeros((2, 2, 2))))
    assert default_horizon(sink) == pytest.approx(200.0)
    assert default_dt(sink) == pytest.approx(0.5 / 20.0)


def test_default_horizon_requires_positive_rates():
    cfg = GameConfig(
        n=1, m=2, q_up=np.zeros((1, 2)), q_down=np.zeros((1, 2)),
        q_up_evo=np.zeros((1, 2, 2)), q_down_evo=np.zeros((1, 2, 2)),
        w=np.ones((1, 2)), fee_B=1.0 - np.eye(2), fee_H=np.zeros(1),
    )
    with pytest.raises(ValueError, match="--T"):
        default_horizon(cfg)


def test_cone_check_values():
    cfg = GameConfig(
        n=1, m=2, q_up=np.zeros((1, 2)), q_down=np.zeros((1, 2)),
        q_up_evo=np.zeros((1, 2, 2)), q_down_evo=np.zeros((1, 2, 2)),
        w=np.ones((1, 2)), fee_B=[[0.0, 1.0], [1.0, 0.0]], fee_H=np.zeros(1),
    )
    assert switch_gains(np.array([[0.0, 5.0]]), cfg).max() == pytest.approx(4.0)
    single = GameConfig(
        n=2, m=1, q_up=[[1.0], [0.0]], q_down=[[0.0], [1.0]],
        q_up_evo=np.zeros((2, 1, 1)), q_down_evo=np.zeros((2, 1, 1)),
        w=np.ones((2, 1)), fee_B=np.zeros((1, 1)), fee_H=np.zeros(2),
    )
    assert switch_gains(np.ones((2, 1)), single).max() == float("-inf")


def test_solve_converges_immediately_inside_cone():
    rng = np.random.default_rng(101)
    cfg = theorem_config(3, 3, rng, delta=0.05)
    res = solve_mfg(Occupation.uniform(3, 3), np.zeros((3, 3)), T=6.0, dt=0.05,
                    cfg=cfg)
    assert res.converged and not res.oscillating
    assert res.iterations == 1
    assert steps_of(res.trajectory.u).shape == (len(res.trajectory.times) - 1, 3, 3)
    assert (steps_of(res.trajectory.u) == np.arange(3)).all()  # everyone stays
    assert res.cone_violations == []
    assert res.meta["cone_worst"] <= 0.0
    assert res.meta["switch_fraction"] == 0.0
    assert res.meta["flipped_steps"] == 0


def test_solve_from_stationary_point_stays_there():
    rng = np.random.default_rng(113)
    cfg = make_config(3, 3, rng, db=True, balanced_evo=True, delta=0.05,
                      gap=2.0, fee_switch=1.5)
    sol = stationary_solution(cfg)
    res = solve_mfg(sol.x0, np.zeros((3, 3)), T=10.0, dt=0.05, cfg=cfg)
    assert res.converged
    tm = turnpike_metrics(res, cfg)
    assert float(tm.d0.max()) < 1e-12
    # occupation never moves: switch decisions only fire on unoccupied states
    assert float(np.max(np.abs(res.trajectory.x - res.trajectory.x[0]))) < 1e-12
    assert tm.plateau < 1e-12
    assert tm.sup_middle < 1e-12
    assert 0.0 <= tm.switch_fraction <= 1.0


def _sweep(x0, u_path, T, dt, cfg):
    """One sweep of solve_mfg under a control path: forward, then optimizing backward."""
    fwd = integrate_forward(x0, u_path, 0.0, T, dt, cfg)
    bwd = integrate_backward(np.zeros((cfg.n, cfg.m)), fwd.x, 0.0, T, dt, cfg,
                             mode="optimizing")
    return fwd, bwd


def test_exact_shortcuts_fire_inside_the_cone():
    # acceptance 07's setting: the uniform start is a fixed point of the
    # stay-put step map, and the fees keep every node inside the cone, so all
    # forward steps but the first are filled and no stage takes the maximum
    rng = np.random.default_rng(707)
    for n in (2, 3):
        cfg = theorem_config(n, n, rng, delta=0.05)
        fwd, bwd = _sweep(Occupation.uniform(n, n).x, None, default_horizon(cfg),
                          default_dt(cfg), cfg)
        steps = len(fwd.times) - 1
        assert fwd.meta["fixed_steps"] == steps - 1
        assert bwd.meta["cone_stages"] == 4 * steps


def test_forward_fill_starts_mid_run_on_a_decaying_start():
    # acceptance 08(b)'s setting: without interaction the gap to the
    # column-mass-matched fixed point decays until a step returns its input
    # bit for bit, and every later sample is that step's
    rng = np.random.default_rng(808)
    cfg = theorem_config(3, 3, rng, with_evo=False)
    dt = min(default_dt(cfg), 0.25 / float((cfg.q_up + cfg.q_down).max()))
    fwd = integrate_forward(random_simplex(3, 3, rng), None, 0.0, 2.0 * default_horizon(cfg),
                            dt, cfg)
    # step k returned sample k unchanged and filled samples k + 2 onward
    steps = len(fwd.times) - 1
    k = steps - 1 - fwd.meta["fixed_steps"]
    assert 0.1 * steps < k < 0.9 * steps
    assert (fwd.x[k:] == fwd.x[-1]).all() and (fwd.x[k - 1] != fwd.x[-1]).any()


def test_example_solve_skips_only_near_the_horizon():
    # on the example's converged path nothing is filled, and a stage skips
    # the maximum only in steps that start at a node whose payoff spread less
    # the smallest fee is within SWITCH_TOL: the last few nodes before T
    cfg = read_config(EXAMPLE)
    x0 = Occupation.uniform(cfg.n, cfg.m).x
    res = solve_mfg(x0, np.zeros((cfg.n, cfg.m)), 10.0, 0.05, cfg)
    assert res.converged
    fwd, bwd = _sweep(x0, res.trajectory.u, 10.0, 0.05, cfg)
    assert np.array_equal(bwd.g, res.trajectory.g)
    assert fwd.meta["fixed_steps"] == 0
    g = bwd.g
    inside = g.max(axis=(1, 2)) - g.min(axis=(1, 2)) - cfg.switch_fee.min() <= SWITCH_TOL
    near_t = int(inside.sum())
    assert 0 < near_t < 0.1 * len(g) and inside[-near_t:].all()
    assert near_t <= bwd.meta["cone_stages"] <= 4 * near_t


def test_solve_reports_nonconvergence_at_iteration_cap():
    rng = np.random.default_rng(7)
    cfg = make_config(3, 3, rng, db=True, balanced_evo=True, delta=0.05,
                      fee_switch=0.05)  # fees too small to stop switching
    res = solve_mfg(Occupation.uniform(3, 3), np.zeros((3, 3)), T=4.0, dt=0.05,
                    cfg=cfg, max_iter=1)
    assert res.iterations == 1
    assert not res.converged
    # switching is active, so the stay-put start cannot reproduce itself, and
    # the last best response changed the control it was computed against
    assert (res.trajectory.u.targets != np.arange(3)).any()
    assert res.meta["flipped_steps"] == 80


def test_solve_records_cone_violations_with_cheap_fees():
    rng = np.random.default_rng(29)
    cfg = make_config(3, 3, rng, db=True, balanced_evo=True, delta=0.05,
                      gap=3.0, fee_switch=0.05)
    res = solve_mfg(Occupation.uniform(3, 3), np.zeros((3, 3)), T=4.0, dt=0.05,
                    cfg=cfg, max_iter=40)
    assert res.cone_violations, "large payoff gaps with tiny fees must violate the cone"
    t, i, a, b, gain = res.cone_violations[0]
    assert 0.0 <= t <= 4.0 and gain > 0.0
    assert res.meta["cone_worst"] == pytest.approx(
        max(v[-1] for v in res.cone_violations)
    )


def test_solve_certifies_exact_equilibrium_on_switching_config():
    rng = np.random.default_rng(29)
    cfg = make_config(3, 3, rng, db=True, balanced_evo=True, delta=0.05,
                      gap=3.0, fee_switch=0.05)
    res = solve_mfg(Occupation.uniform(3, 3), np.zeros((3, 3)), T=4.0, dt=0.05,
                    cfg=cfg)
    assert res.converged and not res.oscillating
    assert res.iterations == 2 and res.meta["flipped_steps"] == 0
    traj = res.trajectory
    assert (traj.u.targets != np.arange(3)).any()
    # g is exactly the optimizing payoff against the solve's own x, and its
    # best response is the control x was integrated under
    bwd = integrate_backward(np.zeros((3, 3)), traj.x, 0.0, 4.0, 0.05, cfg,
                             mode="optimizing")
    npt.assert_array_equal(bwd.g, traj.g)
    assert bwd.u.steps_differing(traj.u) == 0
    npt.assert_array_equal(steps_of(bwd.u), steps_of(traj.u))
    fwd = integrate_forward(Occupation.uniform(3, 3), traj.u, 0.0, 4.0, 0.05, cfg)
    npt.assert_array_equal(fwd.x, traj.x)


def test_solve_stops_on_true_control_cycle():
    cfg = cycle_config()
    res = solve_mfg(Occupation.uniform(3, 3), np.zeros((3, 3)), T=4.0, dt=0.05,
                    cfg=cfg)
    assert res.oscillating and not res.converged
    assert res.iterations == 6
    assert res.meta["flipped_steps"] > 0


def test_solve_rejects_bad_arguments():
    rng = np.random.default_rng(1)
    cfg = make_config(2, 2, rng)
    x0 = Occupation.uniform(2, 2)
    with pytest.raises(ValueError):
        solve_mfg(x0, np.zeros((2, 2)), T=0.0, dt=0.1, cfg=cfg)
    with pytest.raises(ValueError):
        solve_mfg(x0, np.zeros((2, 2)), T=1.0, dt=0.1, cfg=cfg, max_iter=0)


def test_rate_ordering_check_directions():
    rng = np.random.default_rng(202)
    cfg = theorem_config(3, 3, rng)
    reports = rate_ordering_check(cfg)
    assert len(reports) == 3
    assert all(r["holds"] for r in reports)
    assert all(r["direction"] == "alpha<=beta" for r in reports)

    mixed = GameConfig(
        n=3, m=2,
        q_up=[[1.0, 2.0], [2.0, 1.0], [0.0, 0.0]],
        q_down=[[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]],
        q_up_evo=np.zeros((3, 2, 2)), q_down_evo=np.zeros((3, 2, 2)),
        w=np.ones((3, 2)), fee_B=1.0 - np.eye(2), fee_H=np.zeros(3),
        detailed_balance=True,
    )
    rep = rate_ordering_check(mixed)[0]
    assert not rep["holds"]
    assert rep["direction"] == "mixed"


def test_boundary_tangent_condition_sign_and_probe():
    rng = np.random.default_rng(303)
    cfg = theorem_config(3, 3, rng, delta=0.05)
    alpha, beta, level = 0, 1, 1
    # payoffs constant down each column with column beta exactly one switch
    # fee above column alpha: every (level, alpha, beta) probe sits on the
    # boundary, and the pressure terms cancel column by column
    g = np.zeros((3, 3))
    g[:, beta] = cfg.fee_B[alpha, beta]
    g[:, 2] = -1.0
    x = random_simplex(3, 3, rng)
    value, leading = boundary_tangent_condition(g, x, cfg, level, alpha, beta)
    want = cfg.w[level, beta] - cfg.w[level, alpha] - cfg.delta_dis * cfg.fee_B[alpha, beta]
    assert value == pytest.approx(want, abs=1e-12)
    assert value < 0.0  # the sized fee dominates any reward difference
    assert leading == pytest.approx(0.0, abs=1e-12)

    g_off = g.copy()
    g_off[level, beta] += 0.01
    with pytest.raises(ValueError, match="boundary"):
        boundary_tangent_condition(g_off, x, cfg, level, alpha, beta)
