from __future__ import annotations

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from hbmfg import (
    GameConfig,
    Occupation,
    SinkRates,
    SolverError,
    boundary_tangent_condition,
    cone_check,
    default_dt,
    default_horizon,
    integrate_backward,
    integrate_forward,
    rate_ordering_check,
    solve_mfg,
    stationary_solution,
    turnpike_metrics,
)
from hbmfg.solver import _control_provider, _occupation_provider
from test_kinetics import random_simplex
from util_configs import cycle_config, make_config, theorem_config


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
    with pytest.raises(SolverError):
        default_horizon(cfg)


def test_cone_check_values():
    cfg = GameConfig(
        n=1, m=2, q_up=np.zeros((1, 2)), q_down=np.zeros((1, 2)),
        q_up_evo=np.zeros((1, 2, 2)), q_down_evo=np.zeros((1, 2, 2)),
        w=np.ones((1, 2)), fee_B=[[0.0, 1.0], [1.0, 0.0]], fee_H=np.zeros(1),
    )
    assert cone_check(np.array([[0.0, 5.0]]), cfg) == pytest.approx(4.0)
    single = GameConfig(
        n=2, m=1, q_up=[[1.0], [0.0]], q_down=[[0.0], [1.0]],
        q_up_evo=np.zeros((2, 1, 1)), q_down_evo=np.zeros((2, 1, 1)),
        w=np.ones((2, 1)), fee_B=np.zeros((1, 1)), fee_H=np.zeros(2),
    )
    assert cone_check(np.ones((2, 1)), single) == float("-inf")


def test_solve_converges_immediately_inside_cone():
    rng = np.random.default_rng(101)
    cfg = theorem_config(3, 3, rng, delta=0.05)
    res = solve_mfg(Occupation.uniform(3, 3), np.zeros((3, 3)), T=6.0, dt=0.05,
                    cfg=cfg)
    assert res.converged and not res.oscillating
    assert res.iterations == 1
    assert res.trajectory.u.shape == (len(res.trajectory.times) - 1, 3, 3)
    assert (res.trajectory.u == np.arange(3)).all()  # everyone stays
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


def test_solve_reports_nonconvergence_at_iteration_cap():
    rng = np.random.default_rng(7)
    cfg = make_config(3, 3, rng, db=True, balanced_evo=True, delta=0.05,
                      fee_switch=0.05)  # fees too small to stop switching
    res = solve_mfg(Occupation.uniform(3, 3), np.zeros((3, 3)), T=4.0, dt=0.05,
                    cfg=cfg, max_iter=1)
    assert res.iterations == 1
    assert not res.converged
    # switching is active, so the stay-put start cannot reproduce itself
    assert (res.trajectory.u != np.arange(3)).any()


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
    assert (traj.u != np.arange(3)).any()
    # g is exactly the optimizing payoff against the solve's own x, and its
    # best response is the control x was integrated under
    bwd = integrate_backward(np.zeros((3, 3)), _occupation_provider(traj.x, 0.05),
                             0.0, 4.0, 0.05, cfg, mode="optimizing")
    npt.assert_array_equal(bwd.g, traj.g)
    npt.assert_array_equal(bwd.u, traj.u)
    fwd = integrate_forward(Occupation.uniform(3, 3), _control_provider(traj.u, 0.05),
                            0.0, 4.0, 0.05, cfg)
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
