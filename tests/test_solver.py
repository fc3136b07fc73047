from __future__ import annotations

import dataclasses
import hashlib

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
from hbmfg.cli import run as cli_run
from hbmfg.hjb import SWITCH_TOL
from hbmfg.io import read_config, write_state_csv
from test_hjb import (assert_near, assert_replays, assert_reruns, backward_loop, same_bits,
                      steps_changing)
from test_io_cli import EXAMPLE
from test_kinetics import random_simplex
from util_configs import cycle_config, make_config, stayput_config, steps_of, theorem_config



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
    assert 0.0 <= res.meta["switch_fraction"] <= 1.0


def _sweep(x0, u_path, T, dt, cfg):
    """One sweep of solve_mfg under a control path: forward, then optimizing backward."""
    fwd = integrate_forward(x0, u_path, 0.0, T, dt, cfg)
    bwd = integrate_backward(np.zeros((cfg.n, cfg.m)), fwd.x, 0.0, T, dt, cfg,
                             mode="optimizing")
    return fwd, bwd


def test_exact_shortcuts_fire_inside_the_cone():
    # acceptance 07's setting: the uniform start is a fixed point of the
    # stay-put step map, and the fees keep every node inside the cone, so all
    # forward steps but the first are filled, and every payoff step is held:
    # the reference loop's stage controls never change
    rng = np.random.default_rng(707)
    for n in (2, 3):
        cfg = theorem_config(n, n, rng, delta=0.05)
        fwd, bwd = _sweep(Occupation.uniform(n, n).x, None, default_horizon(cfg),
                          default_dt(cfg), cfg)
        steps = len(fwd.times) - 1
        assert fwd.meta["fixed_steps"] == steps - 1
        inputs = []
        stage = backward_loop(np.zeros((n, n)), fwd.x, "optimizing", fwd.meta["dt"], cfg,
                              inputs)[0]
        assert_replays(bwd, fwd.x, fwd.meta["dt"], cfg)
        assert bwd.meta["held_steps"] == steps and not any(steps_changing(inputs, cfg))
        # the whole path is one held run, everybody stays: one bare map's
        # powers take every step
        assert bwd.meta["map_steps"] == steps and bwd.meta["maps"] == 1
        assert_near(bwd.g, stage)


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
    # on the example's converged path nothing is filled.  The nodes whose
    # payoff spread less the smallest fee is within SWITCH_TOL are the last
    # few before T; the best response changes, and the pass reruns steps,
    # only just below them
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
    # the pass is step by step the reference loop's, and near the stage loop
    inputs = []
    stage = backward_loop(np.zeros((cfg.n, cfg.m)), fwd.x, "optimizing", 0.05, cfg, inputs)[0]
    assert_replays(bwd, fwd.x, 0.05, cfg)
    assert_near(g, stage)
    changing = steps_changing(inputs, cfg)   # from the step next to T on
    assert_reruns(bwd, changing)
    assert 0 < sum(changing) and not any(changing[:near_t - 1] + changing[2 * near_t:])
    # the held steps hold targets, and take flat Horner steps, but for the 17
    # next to T, where everybody stays; the moving path builds no step map
    assert (bwd.meta["held_steps"], bwd.meta["rerun_steps"]) == (193, 7)
    assert bwd.meta["flat_steps"] == 193 - 17 and bwd.meta["map_steps"] == 0


def test_solve_pins_the_cone_scan_of_the_example_and_a_stay_put_config(tmp_path, monkeypatch):
    # the example's largest gain is positive, so its node pass builds the gain
    # tensor; perfbench's seed-1 stay-put config has no gain above SWITCH_TOL,
    # so the pair pass alone gives its cone_worst.  The stay-put path is one
    # held run that everybody stays on, so a bare step map's powers take its
    # payoff steps: the reference steps give its bits (replay), and the
    # stage loop its payoff and cone_worst within rounding
    cfg = read_config(EXAMPLE)
    x0 = Occupation.uniform(cfg.n, cfg.m).x
    T, dt = default_horizon(cfg), default_dt(cfg)
    res = solve_mfg(x0, np.zeros((cfg.n, cfg.m)), T, dt, cfg)
    assert res.meta["cone_worst"] == 1.5203133046333726 and res.iterations == 2
    # its two sweeps: the first fills all forward steps but one and its
    # payoff pass is one held run; the last, under the converged control,
    # moves, and its held steps take flat Horner steps but for the 17 bare
    # ones next to T
    fwd, bwd = _sweep(x0, None, T, dt, cfg)
    assert fwd.meta["fixed_steps"] == 1249 and bwd.meta["map_steps"] == 1243
    fwd, bwd = _sweep(x0, res.trajectory.u, T, dt, cfg)
    assert fwd.meta["fixed_steps"] == 0 and np.array_equal(bwd.g, res.trajectory.g)
    assert (bwd.meta["held_steps"], bwd.meta["rerun_steps"]) == (1243, 7)
    assert bwd.meta["flat_steps"] == 1243 - 17 and bwd.meta["map_steps"] == 0
    cfg = read_config(stayput_config(tmp_path, monkeypatch))
    res = solve_mfg(Occupation.uniform(cfg.n, cfg.m).x, np.zeros((cfg.n, cfg.m)), 5.0, 0.05, cfg)
    assert res.meta["cone_worst"] == -26.34461942423467
    assert (res.trajectory.u.targets == np.arange(cfg.m)).all()
    gT, x = np.zeros((cfg.n, cfg.m)), res.trajectory.x
    bwd = _sweep(x[0], None, 5.0, 0.05, cfg)[1]
    assert np.array_equal(bwd.g, res.trajectory.g) and bwd.meta["map_steps"] == len(x) - 1
    assert_replays(bwd, x, 0.05, cfg)
    stage = backward_loop(gT, x, "optimizing", 0.05, cfg)[0]
    assert_near(res.trajectory.g, stage)
    worst = float(switch_gains(stage, cfg).max())
    assert abs(res.meta["cone_worst"] - worst) <= 1e-12 * max(1.0, float(np.abs(stage).max()))


SOLVE_PINS = {   # the SHA-256 of each solve artifact, by run
    "example": {
        "x.csv": "b6a170f6d349238ce4e38c6b9d4303c7236895f3f20ef08a076ccc888fa60b7a",
        "g.csv": "fbaacfc912a99fcb822d4d25f18c5a2887a37d82bba9557a7610d79930a05775",
        "controls.json": "1748a50a3758b21c912ba0303bb799ec77e81d24e26ba08b5fed299f67ae582f",
        "solve.json": "3450024e66b18e36f173bb74af457b27f7d1c74366a4b971f1a1c45b7c2694ff",
    },
    "stayput": {
        "x.csv": "9aecc53c82d0d9785cca3e24413651f61a1e993c0f7add9e02cfe249c7fccb44",
        "g.csv": "7f3f9aab8941f64ecb38669b9374bebc285b763de19521831a52cc6315e9671a",
        "controls.json": "5bf55642dbfd0dec9db5466ff15f81fc31f43d852cebb4aa95fa34296c21f4f6",
        "solve.json": "ccbd785ab041e6754a63a5343904d5829ed9a84cea6d50098dd9096afa62ba24",
    },
    "stayput-x0": {
        "x.csv": "bcc99b589d50e6d1f558fea0bd372d00a5a02e3c0fd9a77109c0e1e97b5932c9",
        "g.csv": "f4750ec3bc757f79396b3bb109039f20a2f2f6607c0a95a33f2b1bd4a8317226",
        "controls.json": "5bf55642dbfd0dec9db5466ff15f81fc31f43d852cebb4aa95fa34296c21f4f6",
        "solve.json": "990a07e6db555171fe01871bd19067a4843ed17fe71f5377acf237fa6af31a1e",
    },
}


def test_solve_pins_the_bytes_of_its_artifacts(tmp_path, monkeypatch):
    # the example at its default horizon, and the seed-1 stay-put config on a
    # short horizon, from its stationary start and from CI's seeded moving
    # start, which reaches the moving 10 x 10 payoff operators and the
    # run-checked forward pass: a change that moves any bit of a solve
    # changes these pins, and has to say so.  The 10 x 10 grids lie outside
    # kinetics.flat_operators, so their kernels and pins are the by-column
    # ones; the example's held switch takes the flat operators in both
    # passes.  The stay-put payoff, whose held run steps by a step map's
    # powers, and the example's, whose held targets take flat Horner steps,
    # stay within rounding of the stage loop run over their own x.csv
    stayput = ["solve", stayput_config(tmp_path, monkeypatch), "--T", "5", "--dt", "0.05"]
    x = np.random.default_rng(0).random((10, 10))
    write_state_csv(str(tmp_path / "x0.csv"), x / x.sum())
    argv = {"example": ["solve", EXAMPLE], "stayput": stayput,
            "stayput-x0": stayput + ["--x0", str(tmp_path / "x0.csv")]}
    for name, pins in SOLVE_PINS.items():
        out = tmp_path / name
        assert cli_run(argv[name] + ["--out", str(out)]) == 0
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in pins}
        assert got == pins, name
    for name in ("stayput", "example"):
        cfg = read_config(argv[name][1])
        x, g = (np.loadtxt(tmp_path / name / f, delimiter=",", skiprows=1)[:, 1:]
                .reshape(-1, cfg.n, cfg.m) for f in ("x.csv", "g.csv"))
        assert_near(g, backward_loop(g[-1], x, "optimizing", 0.05, cfg)[0])


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
    # large payoff gaps with tiny fees leave the cone: cone_worst is the
    # largest switch gain over the final payoff path, in bits
    rng = np.random.default_rng(29)
    cfg = make_config(3, 3, rng, db=True, balanced_evo=True, delta=0.05,
                      gap=3.0, fee_switch=0.05)
    res = solve_mfg(Occupation.uniform(3, 3), np.zeros((3, 3)), T=4.0, dt=0.05,
                    cfg=cfg, max_iter=40)
    worst = res.meta["cone_worst"]
    assert worst > 0.0
    assert same_bits(worst, switch_gains(res.trajectory.g, cfg).max())


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
    # a stay is no switch, so no boundary: its margin is -inf, never 0
    with pytest.raises(ValueError, match="boundary"):
        boundary_tangent_condition(g, x, cfg, 1, 1, 1)
    # an index off the grid is refused by name, not read from the other end
    for probe, name in (((-1, 0, 1), "level"), ((3, 0, 1), "level"), ((1, 0, 3), "beta"),
                        ((1, -1, 1), "alpha")):
        with pytest.raises(ValueError, match=f"probe {name} "):
            boundary_tangent_condition(g, x, cfg, *probe)
