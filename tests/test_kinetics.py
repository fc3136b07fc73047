from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from hbmfg import (
    Control,
    CountState,
    GameConfig,
    KineticsError,
    Occupation,
    Regime,
    SinkRates,
    integrate_backward,
    integrate_forward,
    kinetic_rhs,
    simulate,
)
from hbmfg import kinetics, simulator
from hbmfg.io import read_config
from hbmfg.kinetics import MAX_STEPS, NODE_BYTES, rk4_step, step_grid
from hbmfg.model import control_pieces, occupation_array
from hbmfg.solver import default_dt, default_horizon, solve_mfg
from test_io_cli import EXAMPLE
from util_configs import make_config, stayput_config, theorem_config


def rhs_loops(x, u, cfg):
    """Independent element-by-element transcription of the flow balance."""
    n, m = cfg.n, cfg.m
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            if u is not None:
                acc += switch_balance(u, x, i, j, cfg.lam)
            if i > 0:
                acc += cfg.q_up[i - 1, j] * x[i - 1, j]
            if i < n - 1:
                acc += cfg.q_down[i + 1, j] * x[i + 1, j]
            acc -= (cfg.q_up[i, j] + cfg.q_down[i, j]) * x[i, j]
            if cfg.delta_int != 0.0:
                s_up = sum(cfg.q_up_evo[i, j, k] * x[i, k] for k in range(m))
                s_dn = sum(cfg.q_down_evo[i, j, k] * x[i, k] for k in range(m))
                acc -= cfg.delta_int * (s_up + s_dn) * x[i, j]
                if i > 0:
                    su = sum(cfg.q_up_evo[i - 1, j, k] * x[i - 1, k] for k in range(m))
                    acc += cfg.delta_int * su * x[i - 1, j]
                if i < n - 1:
                    sd = sum(cfg.q_down_evo[i + 1, j, k] * x[i + 1, k] for k in range(m))
                    acc += cfg.delta_int * sd * x[i + 1, j]
            out[i, j] = acc
    return out


def switch_balance(target, x, i, j, lam):
    """Net switching flow into (i, j): every (i, k) targeting j in, (i, j) out."""
    acc = 0.0
    for k in range(x.shape[1]):
        if k != j and target[i, k] == j:
            acc += lam * x[i, k]
    if target[i, j] != j:
        acc -= lam * x[i, j]
    return acc


def random_control(n, m, rng):
    """Target matrix: each state switches to a random behaviour or stays."""
    target = np.tile(np.arange(m), (n, 1))
    for i in range(n):
        for j in range(m):
            k = rng.integers(0, m + 1)  # m means "stay"
            if k < m:
                target[i, j] = k
    return target


def random_simplex(n, m, rng):
    x = rng.uniform(0.05, 1.0, size=(n, m))
    return x / x.sum()


def test_rhs_matches_loop_oracle():
    rng = np.random.default_rng(42)
    for case in range(12):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        cfg = make_config(n, m, rng, db=bool(case % 2), balanced_evo=False,
                          lam=float(rng.uniform(0.5, 2.0)))
        x = random_simplex(n, m, rng)
        u = random_control(n, m, rng) if case % 3 else None
        got = kinetic_rhs(x, u, cfg)
        want = rhs_loops(x, u, cfg)
        npt.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_rhs_frozen_two_by_two():
    cfg = GameConfig(
        n=2, m=2,
        q_up=[[1.0, 2.0], [0.0, 0.0]],
        q_down=[[0.0, 0.0], [1.0, 2.0]],
        q_up_evo=np.zeros((2, 2, 2)),
        q_down_evo=np.zeros((2, 2, 2)),
        w=np.ones((2, 2)), fee_B=1.0 - np.eye(2), fee_H=np.zeros(2),
        detailed_balance=True,
    )
    x = np.array([[0.5, 0.1], [0.2, 0.2]])
    npt.assert_allclose(kinetic_rhs(x, None, cfg),
                        [[-0.3, 0.2], [0.3, -0.2]], atol=1e-15)
    # one decision channel on top: lam=1, switch (1,1)->(1,2) moves 0.5/s
    u = np.array([[1, 1], [0, 1]])
    npt.assert_allclose(kinetic_rhs(x, u, cfg),
                        [[-0.8, 0.7], [0.3, -0.2]], atol=1e-15)


def test_rhs_frozen_interaction_only():
    cfg = GameConfig(
        n=2, m=1,
        q_up=np.zeros((2, 1)), q_down=np.zeros((2, 1)),
        q_up_evo=np.array([[[2.0]], [[0.0]]]),
        q_down_evo=np.array([[[0.0]], [[3.0]]]),
        w=np.ones((2, 1)), fee_B=np.zeros((1, 1)), fee_H=np.zeros(2),
        delta=0.1, regime="id2",  # delta_int = 0.1
    )
    x = np.array([[0.6], [0.4]])
    # up flux 0.1*(2*0.6)*0.6 = 0.072, down flux 0.1*(3*0.4)*0.4 = 0.048
    npt.assert_allclose(kinetic_rhs(x, None, cfg),
                        [[-0.024], [0.024]], atol=1e-15)


def test_rhs_sink_frozen():
    cfg = GameConfig(
        n=2, m=1,
        q_up=[[1.0], [0.0]], q_down=np.zeros((2, 1)),
        q_up_evo=np.zeros((2, 1, 1)), q_down_evo=np.zeros((2, 1, 1)),
        w=np.ones((2, 1)), fee_B=np.zeros((1, 1)), fee_H=np.zeros(2),
        q_sink=SinkRates(direct=[[0.0], [2.0]], interaction=np.zeros((2, 1, 1))),
    )
    x = np.array([[0.5], [0.5]])
    npt.assert_allclose(kinetic_rhs(x, None, cfg),
                        [[0.5], [-0.5]], atol=1e-15)


def test_rhs_sink_matches_loop_oracle():
    rng = np.random.default_rng(5)
    n, m = 4, 2
    q_up = np.zeros((n, m))
    q_up[:-1] = rng.uniform(0.3, 2.0, (n - 1, m))
    direct = rng.uniform(0.1, 1.0, (n, m))
    inter = rng.uniform(0.1, 0.5, (n, m, m))
    que = np.zeros((n, m, m))
    que[:-1] = rng.uniform(0.1, 0.5, (n - 1, m, m))
    cfg = GameConfig(
        n=n, m=m, q_up=q_up, q_down=np.zeros((n, m)),
        q_up_evo=que, q_down_evo=np.zeros((n, m, m)),
        w=np.ones((n, m)), fee_B=1.0 - np.eye(m), fee_H=np.zeros(n),
        delta=0.2, regime="id2",
        q_sink=SinkRates(direct=direct, interaction=inter),
    )
    x = random_simplex(n, m, rng)
    u = random_control(n, m, rng)
    got = kinetic_rhs(x, u, cfg)

    d = cfg.delta_int
    want = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = switch_balance(u, x, i, j, cfg.lam)
            if i > 0:
                acc += q_up[i - 1, j] * x[i - 1, j]
                su = sum(que[i - 1, j, k] * x[i - 1, k] for k in range(m))
                acc += d * su * x[i - 1, j]
            acc -= q_up[i, j] * x[i, j]
            acc -= d * sum(que[i, j, k] * x[i, k] for k in range(m)) * x[i, j]
            if i > 0:  # drop straight to the bottom level
                rate = direct[i, j] + d * sum(
                    inter[i, j, k] * x[i, k] for k in range(m)
                )
                acc -= rate * x[i, j]
            want[i, j] = acc
    # collect everything that dropped
    for j in range(m):
        for i in range(1, n):
            rate = direct[i, j] + d * sum(inter[i, j, k] * x[i, k] for k in range(m))
            want[0, j] += rate * x[i, j]
    npt.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_mass_conservation():
    rng = np.random.default_rng(11)
    for _ in range(6):
        cfg = make_config(3, 3, rng, db=False, balanced_evo=False, lam=1.7)
        x = random_simplex(3, 3, rng)
        u = random_control(3, 3, rng)
        assert abs(kinetic_rhs(x, u, cfg).sum()) < 1e-14
        # without decisions each behaviour column keeps its mass
        col = kinetic_rhs(x, None, cfg).sum(axis=0)
        npt.assert_allclose(col, 0.0, atol=1e-14)


def column_generator(j, cfg):
    """Dense per-column pressure generator, built straight from the rates."""
    n = cfg.n
    A = np.zeros((n, n))
    for i in range(n - 1):
        A[i + 1, i] += cfg.q_up[i, j]
        A[i, i] -= cfg.q_up[i, j]
        A[i, i + 1] += cfg.q_down[i + 1, j]
        A[i + 1, i + 1] -= cfg.q_down[i + 1, j]
    return A


def test_integrate_forward_matches_matrix_exponential():
    rng = np.random.default_rng(21)
    cfg = make_config(4, 2, rng, db=True, with_evo=False)
    x0 = random_simplex(4, 2, rng)
    T = 2.0
    traj = integrate_forward(x0, None, 0.0, T, 0.005, cfg)
    want = np.empty_like(x0)
    for j in range(cfg.m):
        A = column_generator(j, cfg)  # symmetric under detailed balance
        lam, V = np.linalg.eigh(A)
        want[:, j] = V @ (np.exp(lam * T) * (V.T @ x0[:, j]))
    npt.assert_allclose(traj.x[-1], want, atol=1e-9)
    assert traj.meta["projections"] == 0
    assert traj.meta["drift_max"] < 1e-12


def test_integrate_forward_constant_control_vs_per_step_stack():
    rng = np.random.default_rng(3)
    cfg = make_config(3, 2, rng, lam=1.3)
    x0 = random_simplex(3, 2, rng)
    u = random_control(3, 2, rng)
    a = integrate_forward(x0, u, 0.0, 1.0, 0.02, cfg)
    b = integrate_forward(x0, Control.of_steps(np.broadcast_to(u, (50, 3, 2))), 0.0, 1.0,
                          0.02, cfg)
    npt.assert_array_equal(a.x, b.x)
    npt.assert_array_equal(a.times, 0.02 * np.arange(51))
    # a piece runs under its targets: a control switched halfway equals two
    # half-horizon runs chained at the midpoint
    v = (u + 1) % 2
    halves = Control([0, 25], [u, v], 50)
    c = integrate_forward(x0, halves, 0.0, 1.0, 0.02, cfg)
    first = integrate_forward(x0, u, 0.0, 0.5, 0.02, cfg)
    second = integrate_forward(first.x[-1], v, 0.5, 1.0, 0.02, cfg)
    npt.assert_array_equal(c.x, np.concatenate([first.x, second.x[1:]]))
    assert np.abs(c.x[-1] - a.x[-1]).max() > 1e-6


def test_integrate_forward_blowup_names_time_and_step():
    rng = np.random.default_rng(9)
    cfg = make_config(3, 2, rng)
    x0 = random_simplex(3, 2, rng)
    # moderate blow-ups get clamped back onto the simplex; only a step so
    # large that one RK4 stage overflows reaches the non-finite guard
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(KineticsError, match="non-finite"):
            integrate_forward(x0, None, 0.0, 2e80, 1e80, cfg)


def test_integrate_forward_rejects_bad_grid():
    rng = np.random.default_rng(1)
    cfg = make_config(2, 2, rng)
    x0 = Occupation.uniform(2, 2)
    with pytest.raises(ValueError):
        integrate_forward(x0, None, 1.0, 1.0, 0.1, cfg)
    with pytest.raises(ValueError):
        integrate_forward(x0, None, 0.0, 1.0, -0.1, cfg)
    with pytest.raises(ValueError, match="finite"):
        integrate_forward(x0, None, 0.0, np.inf, 0.1, cfg)
    # a control path must cover the grid's steps exactly
    stack = np.broadcast_to(random_control(2, 2, rng), (40, 2, 2))
    with pytest.raises(ValueError, match=r"\(40, 2, 2\).* 50 steps"):
        integrate_forward(x0, Control.of_steps(stack), 0.0, 1.0, 0.02, cfg)
    # and a bare per-step stack is not a control
    with pytest.raises(ValueError, match="target matrix"):
        integrate_forward(x0, stack, 0.0, 1.0, 0.02, cfg)


def test_step_grid_refuses_counts_past_the_bound():
    # a grid is refused before its arrays exist; the bound itself is a grid
    # (of one-value nodes, within the node budget)
    assert step_grid(0.0, 1.0, 1.0 / MAX_STEPS, 1)[0] == MAX_STEPS
    # past it, also where the quotient or the span itself overflows to inf
    for t0, t1, dt, count in ((0.0, 1.0, 0.5 / MAX_STEPS, r"2e\+08"),
                              (0.0, 1e308, 1e-300, "inf"),
                              (-1e308, 1e308, 1e308, "inf")):
        with pytest.raises(ValueError, match=f"grid of {count} steps exceeds the bound of "
                                             f"{MAX_STEPS} steps"):
            step_grid(t0, t1, dt, 1)


def test_rk4_step_is_fourth_order_on_scalar_exponential():
    f = lambda y: -2.0 * y
    y0 = np.array(1.0)
    errs = []
    for h in (0.1, 0.05):
        errs.append(abs(float(rk4_step(f, y0, h)) - np.exp(-2.0 * h)))
    order = np.log2(errs[0] / errs[1])
    assert 4.6 < order < 5.4  # local error is O(h^5)


def test_rk4_step_writes_its_stage_inputs_without_changing_a_bit():
    # stages are out-arrays: the step gives the same bits with or without
    # them, and they receive y + h/2 k1, y + h/2 k2 and y + h k3 in bits
    rng = np.random.default_rng(3)
    h = 0.37
    for shape in ((4, 3), (3, 4, 1)):   # a matrix, and an (m, n, 1) stack
        y = rng.standard_normal(shape)
        M = rng.standard_normal(shape[:-2] + (shape[-2],) * 2)
        for f in (lambda v: M @ v, lambda v: np.cos(v) - v * v):
            k1 = f(y)
            a = y + 0.5 * h * k1
            k2 = f(a)
            b = y + 0.5 * h * k2
            c = y + h * f(b)
            stages = tuple(np.full(shape, np.nan) for _ in range(3))
            plain = rk4_step(f, y, h)
            staged = rk4_step(f, y, h, stages=stages)
            into = np.empty(shape)
            assert rk4_step(f, y, kinetics.rk4_scalars(h), out=into, stages=stages) is into
            for got in (staged, into):
                assert got.tobytes() == plain.tobytes()
            for got, want in zip(stages, (a, b, c)):
                assert got.tobytes() == want.tobytes()


def test_stationary_residual_zero_on_balanced_kernel():
    # two-level single-column chain: kernel of (q_up=1, q_down=2) is (2/3, 1/3)
    cfg = GameConfig(
        n=2, m=1, q_up=[[1.0], [0.0]], q_down=[[0.0], [2.0]],
        q_up_evo=np.zeros((2, 1, 1)), q_down_evo=np.zeros((2, 1, 1)),
        w=np.ones((2, 1)), fee_B=np.zeros((1, 1)), fee_H=np.zeros(2),
    )
    x = np.array([[2.0 / 3.0], [1.0 / 3.0]])
    assert np.abs(kinetic_rhs(x, None, cfg)).max() < 1e-15


def stage_cases():
    """Configs for the bit-for-bit integrator checks, each with a random initial
    occupation and a step count on [0, 1]: random standard and sink configs,
    lam = 0 and m = 1 on 20 steps; then a 10 x 10 config on 120 steps and a
    5 x 4 sink config on 400, grids that span several of integrate_backward's
    operator blocks (hjb.BLOCK_BYTES)."""
    rng = np.random.default_rng(2024)
    cases = []
    for case in range(8):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        cases.append(make_config(n, m, rng, db=bool(case % 2), balanced_evo=False,
                                 fine=0.3, lam=float(rng.uniform(0.5, 2.0)),
                                 fee_switch=0.2, sink=case >= 5, delta=0.3))
    cases.append(make_config(3, 3, rng, balanced_evo=False, lam=0.0, delta=0.3))
    cases.append(make_config(4, 1, rng, balanced_evo=False, delta=0.3))
    steps = [20] * len(cases) + [120, 400]
    cases.append(make_config(10, 10, rng, balanced_evo=False, fine=0.3, fee_switch=0.2,
                             delta=0.3))
    cases.append(make_config(5, 4, rng, balanced_evo=False, fine=0.3, fee_switch=0.2,
                             sink=True, delta=0.3))
    return [(cfg, random_simplex(cfg.n, cfg.m, rng), rng, k) for cfg, k in zip(cases, steps)]


def forward_loop(x0, controls, h, cfg):
    """integrate_forward as an rk4_step loop over kinetic_rhs, one control per step."""
    xs = [np.asarray(x0, dtype=float)]
    for u in controls:
        x = rk4_step(lambda y: kinetic_rhs(y, u, cfg), xs[-1], h)
        if max(abs(float(x.sum()) - 1.0), max(0.0, -float(x.min()))) > 1e-12:
            x = np.clip(x, 0.0, None)
            x /= x.sum()
        xs.append(x)
    return np.array(xs)


def test_integrate_forward_equals_rk4_loop_over_kinetic_rhs():
    for cfg, x0, rng, steps in stage_cases():
        h = 1.0 / steps
        stack = np.array([random_control(cfg.n, cfg.m, rng) for _ in range(steps)])
        traj = integrate_forward(x0, Control.of_steps(stack), 0.0, 1.0, h, cfg)
        assert np.array_equal(traj.x, forward_loop(x0, stack, h, cfg))
        # held for five steps at a time, a control's step kernel is reused
        runs = np.repeat(stack[::5], 5, axis=0)
        traj = integrate_forward(x0, Control.of_steps(runs), 0.0, 1.0, h, cfg)
        assert np.array_equal(traj.x, forward_loop(x0, runs, h, cfg))
        # a path whose targets all stay is nobody switching, bit for bit
        stay = Control.of_steps(np.broadcast_to(np.arange(cfg.m), (steps, cfg.n, cfg.m)))
        free = integrate_forward(x0, None, 0.0, 1.0, h, cfg)
        assert np.array_equal(integrate_forward(x0, stay, 0.0, 1.0, h, cfg).x, free.x)
        assert np.array_equal(free.x, forward_loop(x0, [None] * steps, h, cfg))


def test_integrate_forward_fills_a_fixed_point_up_to_the_piece_end():
    # without interaction theorem_config's level chains have q_down[i + 1] ==
    # q_up[i], so an occupation uniform over each column's levels is
    # stationary; the empty column starts at -0.0, which the first step turns
    # into +0.0, so only the second step returns its input bit for bit.  The
    # stack stays, switches column 0 into column 1 for 20 steps, then stays.
    cfg = theorem_config(3, 3, np.random.default_rng(3), with_evo=False)
    x0 = np.full((3, 3), 0.5 / 3)
    x0[:, 2] = -0.0
    stack = np.broadcast_to(np.arange(3), (200, 3, 3)).copy()
    stack[40:60] = [1, 1, 2]
    traj = integrate_forward(x0, Control.of_steps(stack), 0.0, 4.0, 0.02, cfg)
    ref = forward_loop(x0, stack, 0.02, cfg)
    assert np.array_equal(traj.x.view(np.int64), ref.view(np.int64))
    assert np.signbit(traj.x[0, :, 2]).all() and not np.signbit(traj.x[1:]).any()
    # the first piece fills steps 2..39 and the last fills all but its first
    # step; the switching piece in between is stepped
    assert traj.meta["fixed_steps"] == 38 + 139
    assert (traj.x[41:61] != traj.x[40:60]).any(axis=(1, 2)).all()


def forward_per_step(x0, control, t0, t1, dt, cfg):
    """integrate_forward's per-step rule, one step and its checks at a time:
    the reference for the run-checked pass.  Returns (xs, meta).  The step
    kernel takes the flat occupation."""
    n_steps, h = step_grid(t0, t1, dt, cfg.n * cfg.m)
    times = t0 + h * np.arange(n_steps + 1)
    x = np.array(occupation_array(x0, (cfg.n, cfg.m))).reshape(-1)
    xs = np.empty((n_steps + 1,) + x.shape)
    xs[0] = x
    drift_max = 0.0
    projections = fixed_steps = 0
    for a, b, target in control_pieces(control, n_steps, cfg.n, cfg.m):
        kernel = kinetics._kinetic_kernel(target, cfg)
        for k in range(a, b):
            x_in, x = x, rk4_step(kernel, x, h)
            mass = float(x.sum())
            if not math.isfinite(mass):
                raise KineticsError(
                    f"non-finite occupation at t={times[k + 1]:.6g}; reduce dt (dt={h:.3g})")
            drift = max(abs(mass - 1.0), max(0.0, -float(x.min())))
            drift_max = max(drift_max, drift)
            projected = drift > kinetics.DRIFT_TOL
            if projected:
                x = np.clip(x, 0.0, None)
                x /= x.sum()
                projections += 1
            xs[k + 1] = x
            if x.tobytes() == x_in.tobytes():
                xs[k + 2:b + 1] = x
                fixed_steps += b - k - 1
                projections += projected * (b - k - 1)
                break
    return xs.reshape(n_steps + 1, cfg.n, cfg.m), {
        "dt": h, "drift_max": drift_max, "projections": projections, "fixed_steps": fixed_steps}


def _outcome(integrate, *args):
    # (xs bytes, meta) or the KineticsError's text, with the warnings raised
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            xs, meta = integrate(*args)
            got = (xs.tobytes(), meta)
        except KineticsError as e:
            got = str(e)
    return got, [(w.category, str(w.message)) for w in seen]


def _forward(*args):
    traj = integrate_forward(*args)
    return traj.x, traj.meta


def assert_runs_match_per_step(monkeypatch, *args):
    """integrate_forward with runs capped at 1, 3 and RUN_STEPS steps equals
    the per-step rule: the node bits, meta, the error text and the warnings.
    Returns the outcome, (xs bytes, meta) or the error text, and the warnings."""
    want = _outcome(forward_per_step, *args)
    for cap in (1, 3, kinetics.RUN_STEPS):
        with monkeypatch.context() as mp:
            mp.setattr(kinetics, "RUN_STEPS", cap)
            assert _outcome(_forward, *args) == want, cap
    return want


def test_run_checked_forward_pass_equals_the_per_step_rule_on_solve_paths(
        tmp_path, monkeypatch):
    # the example under its converged control, and the seed-1 stay-put config
    # at dt 0.4, where most steps project, from the uniform and a seeded start
    cfg = read_config(EXAMPLE)
    x0 = Occupation.uniform(cfg.n, cfg.m).x
    T, dt = default_horizon(cfg), default_dt(cfg)
    res = solve_mfg(x0, np.zeros((cfg.n, cfg.m)), T, dt, cfg)
    assert res.converged
    (_, meta), _ = assert_runs_match_per_step(monkeypatch, x0, res.trajectory.u, 0.0, T, dt,
                                              cfg)
    assert meta["projections"] == meta["fixed_steps"] == 0
    cfg = read_config(stayput_config(tmp_path, monkeypatch))
    T = default_horizon(cfg)
    moving = np.random.default_rng(0).random((cfg.n, cfg.m))
    moving /= moving.sum()
    for x0 in (Occupation.uniform(cfg.n, cfg.m).x, moving):
        u = solve_mfg(x0, np.zeros((cfg.n, cfg.m)), T, 0.4, cfg).trajectory.u
        (_, meta), _ = assert_runs_match_per_step(monkeypatch, x0, u, 0.0, T, 0.4, cfg)
        assert meta["projections"] > 100


def test_run_checked_forward_pass_projects_inside_runs_as_the_per_step_rule(
        tmp_path, monkeypatch):
    # with the drift tolerance moved, steps that project sit between plain
    # ones, so runs are cut inside, and the steps computed past a cut drift
    # further than any kept: rounding drift on the seeded path at dt 0.05,
    # and the stay-put solve's switching path at dt 0.4 with a tolerance of 0.2
    cfg = read_config(stayput_config(tmp_path, monkeypatch))
    T = default_horizon(cfg)
    x0 = Occupation.uniform(cfg.n, cfg.m).x
    u = solve_mfg(x0, np.zeros((cfg.n, cfg.m)), T, 0.4, cfg).trajectory.u
    moving = np.random.default_rng(0).random((cfg.n, cfg.m))
    moving /= moving.sum()
    for tol, args, projected in ((3e-16, (moving, None, 0.0, 87.5, 0.05), 7),
                                 (0.2, (x0, u, 0.0, T, 0.4), 194)):
        monkeypatch.setattr(kinetics, "DRIFT_TOL", tol)
        (_, meta), _ = assert_runs_match_per_step(monkeypatch, *args, cfg)
        assert meta["projections"] == projected


def _subnormal_start(ulps):
    # theorem_config's level chains without interaction keep an occupation
    # uniform over each column's levels; column 2 holds `ulps` subnormal
    # units at level 0, which spread until every step rounds to its input
    x0 = np.full((3, 3), 0.5 / 3)
    x0[:, 2] = 0.0
    x0[0, 2] = ulps * 5e-324
    return x0


def test_run_checked_forward_pass_fills_fixed_points_as_the_per_step_rule(monkeypatch):
    cfg = theorem_config(3, 3, np.random.default_rng(3), with_evo=False)

    def fixed_steps(x0, control):
        (_, meta), _ = assert_runs_match_per_step(monkeypatch, x0, control, 0.0, 4.0, 0.02, cfg)
        return meta["fixed_steps"]

    # a fixed point at step 0
    assert fixed_steps(_subnormal_start(0), None) == 199
    # inside a run: step 45, the 15th of the 32-step run from step 31
    assert fixed_steps(_subnormal_start(100), None) == 200 - 46
    # at a piece edge: step 45 ends its piece, which fills nothing; the next
    # piece switches column 0 into column 1, the last is fixed at its first step
    stack = np.broadcast_to(np.arange(3), (200, 3, 3)).copy()
    stack[46:60] = [1, 1, 2]
    assert fixed_steps(_subnormal_start(100), Control.of_steps(stack)) == 200 - 61
    # and the -0.0 start of the fill test: fixed at step 1
    x0 = np.full((3, 3), 0.5 / 3)
    x0[:, 2] = -0.0
    stack[40:60] = [1, 1, 2]
    assert fixed_steps(x0, Control.of_steps(stack)) == 38 + 139


def test_run_checked_forward_pass_warns_as_the_per_step_rule(monkeypatch):
    # the blow-up: a step whose stages overflow is rerun outside its run, so
    # exactly the per-step rule's warnings fire, and the same error is raised
    rng = np.random.default_rng(9)
    cfg = make_config(3, 2, rng)
    x0 = random_simplex(3, 2, rng)
    with np.errstate(all="warn"):
        got, seen = assert_runs_match_per_step(monkeypatch, x0, None, 0.0, 2e80, 1e80, cfg)
    assert got.startswith("non-finite occupation at t=") and seen
    # a step that underflows warns where the caller asks for it, also in the
    # middle of a run, and its run goes on from it
    cfg = theorem_config(3, 3, np.random.default_rng(3), with_evo=False)
    with np.errstate(under="warn"):
        got, seen = assert_runs_match_per_step(monkeypatch, _subnormal_start(100), None, 0.0,
                                               4.0, 0.02, cfg)
    assert seen and got[1]["fixed_steps"] == 200 - 46


def test_forward_overflow_inside_a_flat_run_warns_and_raises_as_the_per_step_rule(monkeypatch):
    # a 3 x 3 switching path, whose stages are the flat kernel's BLAS
    # matmuls: at these steps every step projects, until one overflows into
    # node 5 (step 4, inside the run of steps 3 .. 6) or node 72 (inside the
    # 64-step run from step 63; there the mass check's sum overflows); the
    # same warnings fire as step by step, and the same error is raised.
    # Under -W error the first warning is raised instead, the same one.
    rng = np.random.default_rng(9)
    cfg = make_config(3, 3, rng, balanced_evo=False, delta=0.3)
    x0 = random_simplex(3, 3, rng)
    u = random_control(3, 3, rng)
    assert kinetics.flat_operators(cfg) and (u != np.arange(3)).any()

    def raised(integrate, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                integrate(*args)
            except (KineticsError, RuntimeWarning) as e:
                return type(e), str(e)

    for dt, node in ((2e21, 5), (1.6e21, 72)):
        args = (x0, u, 0.0, 100 * dt, dt, cfg)
        with np.errstate(all="warn"):
            got, seen = assert_runs_match_per_step(monkeypatch, *args)
            want = raised(forward_per_step, *args)
            for cap in (1, 3, kinetics.RUN_STEPS):
                monkeypatch.setattr(kinetics, "RUN_STEPS", cap)
                assert raised(_forward, *args) == want, cap
        assert got == f"non-finite occupation at t={node * dt:.6g}; reduce dt (dt={dt:.3g})", got
        assert seen and want == seen[0]


def by_column_rhs(x, target, cfg):
    """kinetic_rhs by columns, x (n, m): the per-capita rates of cfg.moves
    times x, net @ flux, and the switch's scatter to cfg.switch_cells of
    target less x, times lam; the kernel grids outside
    kinetics.flat_operators step, and the reference for the flat one."""
    mv, m = cfg.moves, cfg.m
    flux = mv.per_capita(x) * x
    out = mv.net @ flux.reshape(-1, m)
    if target is not None and cfg.lam != 0.0 and (target != np.arange(m)).any():
        cells = cfg.switch_cells(target).ravel()
        switch = np.bincount(cells, x.ravel(), x.size).reshape(x.shape) - x
        out += np.array(cfg.lam) * switch
    return out


def test_flat_kernel_equals_the_by_column_formula():
    # on 3 x 3 grids, each level variant and regime, lam = 0 and m = 1, under
    # no control, an all-stay target and a switching one: the flat kernel,
    # one flat operator with the switch as one more move family, is the
    # by-column formula within rounding; past kinetics.flat_operators (6 x 6,
    # 10 x 10) the kernel is the by-column formula in bits
    rng = np.random.default_rng(40)
    small = [make_config(3, 3, rng, balanced_evo=False, delta=0.3, regime=regime, sink=sink,
                         lam=float(rng.uniform(0.5, 2.0)))
             for sink in (False, True) for regime in Regime]
    small += [make_config(3, 3, rng, balanced_evo=False, delta=0.3, lam=0.0),
              make_config(3, 1, rng, balanced_evo=False, delta=0.3),
              make_config(5, 5, rng, balanced_evo=False, delta=0.3, sink=True)]
    large = [make_config(n, n, rng, balanced_evo=False, delta=0.3) for n in (6, 10)]
    for cfg in small + large:
        n, m = cfg.n, cfg.m
        stay = np.tile(np.arange(m), (n, 1))
        switch = (stay + 1) % m
        switch[0] = stay[0]
        for target in (None, stay, switch):
            for x in (random_simplex(n, m, rng), rng.uniform(0.0, 10.0, (n, m))):
                want = by_column_rhs(x, target, cfg)
                got = kinetic_rhs(x, target, cfg)
                if kinetics.flat_operators(cfg):
                    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), cfg
                else:
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert [kinetics.flat_operators(cfg) for cfg in small + large] == [True] * 9 + [False] * 2
    assert not kinetics.flat_operators(dataclasses.replace(small[0], lam=np.inf))


@pytest.mark.parametrize("cells", [1, 2, 7, 8, 9, 16, 17, 100, 128, 129, 300])
def test_row_reductions_equal_each_matrix_reduction(cells):
    # a run's checks rest on this: each row's sum and minimum of a (B, n * m)
    # block are, in bits, the step's x.sum() and x.min() of its (n, m) matrix
    rng = np.random.default_rng(cells)
    shapes = [(n, cells // n) for n in range(1, cells + 1) if cells % n == 0]
    for B in (1, 3, 64):
        near_simplex = rng.dirichlet(np.ones(cells), B) * (1 + 1e-13 * rng.standard_normal((B, 1)))
        for block in (rng.standard_normal((B, cells)), near_simplex):
            sums, mins = block.sum(axis=1), block.min(axis=1)
            for n, m in shapes:
                x = block.reshape(B, n, m)
                assert sums.tobytes() == np.array([r.sum() for r in x]).tobytes(), (B, n, m)
                assert mins.tobytes() == np.array([r.min() for r in x]).tobytes(), (B, n, m)


def test_node_arrays_past_the_budget_are_refused_before_allocation():
    # one node past NODE_BYTES on 3 x 3: 14913081 nodes of 9 values; the
    # rule itself admits the node before (it is arithmetic, nothing is built)
    def refusal(rows):
        return (f"a node array of {rows} x 9 values takes {72 * rows} bytes, "
                f"past the budget of {NODE_BYTES} bytes")

    rows = NODE_BYTES // 72 + 1
    kinetics.check_nodes(rows - 1, 9)
    cfg = make_config(3, 3, np.random.default_rng(1))
    x0, steps = Occupation.uniform(3, 3).x, float(rows - 1)
    # step_grid applies the budget to the grid it makes: within MAX_STEPS,
    # one-value nodes pass and 3 x 3 nodes do not; a step fewer passes
    assert step_grid(0.0, steps, 1.0, 1)[0] == rows - 1 <= MAX_STEPS
    assert step_grid(0.0, steps - 1.0, 1.0, 9)[0] == rows - 2
    with pytest.raises(ValueError, match=refusal(rows)):
        step_grid(0.0, steps, 1.0, 9)
    with pytest.raises(ValueError, match=refusal(rows)):
        integrate_forward(x0, None, 0.0, steps, 1.0, cfg)
    with pytest.raises(ValueError, match=refusal(rows)):
        integrate_backward(np.zeros((3, 3)), None, 0.0, steps, 1.0,
                           make_config(3, 3, np.random.default_rng(1), with_evo=False))
    with pytest.raises(ValueError, match=refusal(rows)):
        solve_mfg(x0, np.zeros((3, 3)), steps, 1.0, cfg)
    # a simulation holds, per replication, its counts, node times and sample
    # times ((samples + 1) x 12 values), two uniform buffers and 6 values a
    # channel, within the budget less a speculative step's _SPEC_BYTES
    channels = len(simulator._build_channels(cfg, None, 9)[0])
    budget = NODE_BYTES - simulator._SPEC_BYTES

    def sim_refusal(reps, samples):
        values = (samples + 1) * 12 + 2 * 1024 + 6 * channels
        return (f"a simulation of {reps} x {values} values takes {8 * reps * values} bytes, "
                f"past the budget of {budget} bytes")

    s0 = CountState.from_occupation(x0, 9)
    with pytest.raises(ValueError, match=sim_refusal(1, rows - 1)):
        simulate(s0, None, 1.0, 0, cfg, samples=rows - 1)
    # one or two replications within NODE_BYTES, but not within what a
    # speculative step leaves of it
    for reps in (1, 2):
        samples = (NODE_BYTES // (8 * reps) - 2 * 1024 - 6 * channels) // 12 - 1
        assert 8 * reps * ((samples + 1) * 12 + 2 * 1024 + 6 * channels) <= NODE_BYTES
        with pytest.raises(ValueError, match=sim_refusal(reps, samples)):
            simulate(s0, None, 1.0, list(range(reps)) if reps > 1 else 0, cfg, samples=samples)
    # three replications whose counts and times alone are within the budget
    samples = NODE_BYTES // (8 * 3 * 12)
    with pytest.raises(ValueError, match=sim_refusal(3, samples)):
        simulate(s0, None, 1.0, [0, 1, 2], cfg, samples=samples)
    # a range of seeds is counted, not listed: also one too long for len()
    with pytest.raises(ValueError, match=sim_refusal(2**64, 1)):
        simulate(s0, None, 1.0, range(2**64), cfg, samples=1)
