from __future__ import annotations

import math
import os
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from hbmfg import (
    Control,
    CountState,
    GameConfig,
    Occupation,
    SinkRates,
    convergence_study,
    enumerate_transitions,
    integrate_forward,
    kinetic_rhs,
    read_config,
    replication_summary,
    simulate,
)
import hbmfg.simulator
from hbmfg.kinetics import MAX_STEPS
from hbmfg.simulator import MAX_N, _ROW_WIDTH, SimPath
from test_kinetics import random_control
from util_configs import make_config

EXAMPLE = os.path.join(os.path.dirname(__file__), "..", "configs", "example.json")


def chain_cfg(q_up0=1.0, q_down1=2.0, **kw):
    base = dict(
        n=2, m=1,
        q_up=[[q_up0], [0.0]], q_down=[[0.0], [q_down1]],
        q_up_evo=np.zeros((2, 1, 1)), q_down_evo=np.zeros((2, 1, 1)),
        w=np.ones((2, 1)), fee_B=np.zeros((1, 1)), fee_H=np.zeros(2),
    )
    base.update(kw)
    return GameConfig(**base)


def switch_cfg(lam=1.0):
    """No pressure, a single level, two behaviours: pure decision dynamics."""
    return GameConfig(
        n=1, m=2, q_up=np.zeros((1, 2)), q_down=np.zeros((1, 2)),
        q_up_evo=np.zeros((1, 2, 2)), q_down_evo=np.zeros((1, 2, 2)),
        w=np.ones((1, 2)), fee_B=1.0 - np.eye(2), fee_H=np.zeros(1),
        lam=lam,
    )


def test_from_occupation_rounding():
    s = CountState.from_occupation(np.full((2, 2), 0.25), 5)
    npt.assert_array_equal(s.counts, [[2, 1], [1, 1]])  # tie goes to flat index 0
    s2 = CountState.from_occupation(np.array([[0.3], [0.7]]), 10)
    npt.assert_array_equal(s2.counts, [[3], [7]])
    s3 = CountState.from_occupation(np.array([[0.26, 0.24], [0.25, 0.25]]), 4)
    npt.assert_array_equal(s3.counts, [[1, 1], [1, 1]])


def test_from_occupation_rounds_a_mass_just_above_one():
    # Occupation accepts a mass within 1e-9 of 1; at N = 10**10 this one
    # floors to 4 agents too many, and the 4 occupied cells with the smallest
    # remainders give one each (ties to the lower flat index)
    x = np.full((3, 3), 1 / 9)
    x[0, 0] += 5e-10
    Occupation(x)
    N = 10**10
    target = (x * N).ravel()
    s = CountState.from_occupation(x, N)
    assert int(s.counts.sum()) == N
    taken = np.floor(target) - s.counts.ravel()
    assert set(taken.tolist()) == {0.0, 1.0}
    rem = target - np.floor(target)
    npt.assert_array_equal(np.flatnonzero(taken), np.sort(np.argsort(rem, kind="stable")[:4]))
    # more excess agents than occupied cells: the largest cell gives the rest
    s = CountState.from_occupation(np.array([[1.0 + 5e-10], [0.0]]), 10**12)
    npt.assert_array_equal(s.counts, [[10**12], [0]])


@pytest.mark.parametrize("seed", [3, [3, 4]])
def test_simulate_refuses_counts_not_of_the_grid(seed):
    # 2 x 2 counts on the 3 x 3 example: the scalar and the lockstep loop
    # failed with numpy's broadcast error before
    cfg = read_config(EXAMPLE)
    s0 = CountState.from_occupation(np.full((2, 2), 0.25), 100)
    with pytest.raises(ValueError, match=r"counts of shape \(2, 2\) do not match the grid's \(3, 3\)"):
        simulate(s0, None, 1.0, seed, cfg, samples=4)


def test_enumerate_transitions_refuses_counts_not_of_the_grid():
    # a bare IndexError before: the channel table indexes the example's 9 cells
    cfg = read_config(EXAMPLE)
    s0 = CountState.from_occupation(np.full((2, 2), 0.25), 100)
    with pytest.raises(ValueError, match=r"counts of shape \(2, 2\) do not match the grid's \(3, 3\)"):
        enumerate_transitions(s0, None, cfg)


def test_count_state_refuses_populations_past_2_53():
    # counts are exact as float64 only up to 2**53, in the rounding and in the
    # lockstep loop; past it the refusal comes first, before any numpy warning
    x = np.full((3, 3), 1 / 9)
    assert int(CountState.from_occupation(x, MAX_N).counts.sum()) == 2**53
    for N in (2**53 + 1, 10**20):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"at most 2\*\*53 = 9007199254740992"):
                CountState.from_occupation(x, N)
    with pytest.raises(ValueError, match=r"at most 2\*\*53"):
        CountState(counts=np.array([[2**53], [1]]), N=2**53 + 1)


def test_count_state_validation():
    with pytest.raises(ValueError):
        CountState(counts=np.array([[1, 2], [3, -1]]), N=5)
    with pytest.raises(ValueError):
        CountState(counts=np.array([[1, 2], [3, 4]]), N=11)
    s = CountState(counts=np.array([[1, 2], [3, 4]]), N=10)
    with pytest.raises(ValueError):
        s.counts[0, 0] = 7  # read-only snapshot


def test_enumerate_transitions_frozen():
    cfg = chain_cfg(delta=0.1, regime="id2",
                    q_up_evo=np.array([[[2.0]], [[0.0]]]))
    state = CountState(counts=np.array([[3], [2]]), N=5)
    trs = {(t.src, t.dst, round(t.rate, 12)) for t in enumerate_transitions(state, None, cfg)}
    want = {
        ((0, 0), (1, 0), 3.0),            # pressure up: 1 * 3
        ((0, 0), (1, 0), 0.36),           # stimulated up: 0.1*2/5 * 3 * 3
        ((1, 0), (0, 0), 4.0),            # pressure down: 2 * 2
    }
    assert trs == want


def test_enumerate_transitions_includes_decisions():
    cfg = switch_cfg(lam=2.0)
    u = np.array([[1, 1]])  # (1,1) switches to behaviour 2, (1,2) stays
    state = CountState(counts=np.array([[4, 1]]), N=5)
    trs = enumerate_transitions(state, u, cfg)
    assert [(t.src, t.dst, t.rate) for t in trs] == [((0, 0), (0, 1), 8.0)]


def test_simulate_deterministic_per_seed():
    cfg = chain_cfg()
    s0 = CountState.from_occupation(np.array([[0.5], [0.5]]), 400)
    a = simulate(s0, None, T=2.0, seed=99, cfg=cfg, samples=8)
    b = simulate(s0, None, T=2.0, seed=99, cfg=cfg, samples=8)
    npt.assert_array_equal(a.counts, b.counts)
    assert a.events == b.events
    c = simulate(s0, None, T=2.0, seed=100, cfg=cfg, samples=8)
    assert not np.array_equal(a.counts, c.counts)
    assert a.meta["rng"] == "pcg64"


def test_simulate_pins_a_seeded_run_on_the_example():
    # every other seeded test compares two runs of this code; this one pins
    # the channel order, which decides the channel each draw picks
    cfg = read_config(EXAMPLE)
    s0 = CountState.from_occupation(np.full((3, 3), 1 / 9), 300)
    path = simulate(s0, None, 1.0, 7, cfg, samples=5)
    assert path.events == 510
    npt.assert_array_equal(path.counts[-1], [[36, 34, 35], [34, 38, 35], [30, 28, 30]])
    # one seed in a list runs the same scalar loop, which logs events and
    # counts no lockstep steps
    [listed] = simulate(s0, None, 1.0, [7], cfg, samples=5, record_events=True)
    assert listed.seed == 7 and listed.events == len(listed.event_log) == 510
    npt.assert_array_equal(listed.counts, path.counts)
    assert listed.meta == path.meta == {"rng": "pcg64"}
    # a two-piece switching control pins the switch channel's place in the
    # table too, in the scalar loop and in the lockstep loop
    u = Control([0, 3], [np.zeros((3, 3), int), [[0, 2, 2], [1, 1, 0], [2, 0, 1]]], 5)
    path = simulate(s0, u, 1.0, 7, cfg, samples=5)
    assert path.events == 668
    npt.assert_array_equal(path.counts[3], [[69, 18, 12], [60, 18, 18], [62, 22, 21]])
    npt.assert_array_equal(path.counts[-1], [[57, 15, 22], [59, 34, 22], [46, 26, 19]])
    first, second = simulate(s0, u, 1.0, [7, 8], cfg, samples=5)
    npt.assert_array_equal(first.counts, path.counts)
    assert (first.events, second.events) == (668, 685)
    npt.assert_array_equal(second.counts[-1], [[59, 18, 26], [62, 26, 16], [34, 24, 35]])
    assert second.meta == {"rng": "pcg64", "lockstep_steps": 100}


def test_simulate_conserves_agents_and_time_grid():
    cfg = chain_cfg()
    s0 = CountState.from_occupation(np.array([[1.0], [0.0]]), 300)
    path = simulate(s0, None, T=3.0, seed=5, cfg=cfg, samples=6)
    npt.assert_array_equal(path.counts.sum(axis=(1, 2)), np.full(7, 300))
    npt.assert_allclose(path.times, np.linspace(0.0, 3.0, 7))
    assert path.x.shape == (7, 2, 1)
    assert path.x.max() <= 1.0


def test_simulate_rejects_non_finite_horizon():
    # no channels, so an accepted infinite horizon would return at once
    s0 = CountState(counts=np.array([[3, 2]]), N=5)
    for T in (np.inf, np.nan, 0.0):
        for seed in (1, [1, 2]):
            with pytest.raises(ValueError, match="T"):
                simulate(s0, None, T, seed, switch_cfg())


def test_exponential_clock_statistics():
    # two-way switching at rate 1 keeps the total event rate at exactly N
    cfg = switch_cfg(lam=1.0)
    u = np.array([[1, 0]])
    N, T = 200, 5.0
    s0 = CountState(counts=np.array([[N, 0]]), N=N)
    path = simulate(s0, u, T=T, seed=31, cfg=cfg, samples=5, record_events=True)
    K = path.events
    assert abs(K - N * T) < 4.5 * np.sqrt(N * T)  # Poisson(N*T) band
    ts = np.array([e[0] for e in path.event_log])
    assert len(ts) == K
    assert np.all(np.diff(ts) >= 0.0) and 0.0 <= ts[0] and ts[-1] <= T
    waits = np.diff(np.concatenate(([0.0], ts)))
    mean = waits.mean()
    assert abs(mean * N - 1.0) < 4.0 / np.sqrt(K)
    # exponential waits have unit coefficient of variation
    assert 0.85 < waits.std() / mean < 1.15


def test_mean_one_step_drift_matches_kinetic_flow():
    # with zero interaction tensors the dynamics are linear, so the empirical
    # mean increment is an unbiased sample of the kinetic one-step increment
    cfg = chain_cfg()
    N, h, reps = 5000, 0.02, 400
    x0 = np.array([[0.6], [0.4]])
    s0 = CountState.from_occupation(x0, N)
    ode = integrate_forward(x0, None, 0.0, h, h / 32.0, cfg).x[-1]
    target = ode - x0
    deltas = np.empty((reps, 2, 1))
    for r in range(reps):
        path = simulate(s0, None, T=h, seed=7000 + r, cfg=cfg, samples=1)
        deltas[r] = path.x[-1] - path.x[0]
    mean = deltas.mean(axis=0)
    se = deltas.std(axis=0, ddof=1) / np.sqrt(reps)
    z = np.abs(mean - target) / np.maximum(se, 1e-12)
    assert float(z.max()) < 4.0, f"drift z-scores {z.ravel()}"


def test_transition_drift_equals_kinetic_flow():
    # summed over all channels, rate * (e_dst - e_src) / N is the kinetic
    # flow at counts / N: quadratic interactions and switches included
    rng = np.random.default_rng(13)
    for sink in (False, True):
        cfg = make_config(3, 2, rng, db=False, balanced_evo=False, delta=0.3,
                          regime="id2", lam=1.4, sink=sink)
        counts = rng.integers(5, 40, size=(3, 2))
        state = CountState(counts=counts, N=int(counts.sum()))
        u = random_control(3, 2, rng)
        drift = np.zeros((3, 2))
        for t in enumerate_transitions(state, u, cfg):
            drift[t.src] -= t.rate / state.N
            drift[t.dst] += t.rate / state.N
        npt.assert_allclose(drift, kinetic_rhs(counts / state.N, u, cfg), rtol=0, atol=1e-12)


def test_equilibrium_occupancy_binomial_band():
    # agents decouple without interaction; at T=6 each one sits at level 1
    # with probability 2/3 (kernel of up=1, down=2) up to e^(-18) transients
    cfg = chain_cfg()
    N = 10000
    s0 = CountState(counts=np.array([[N], [0]]), N=N)
    path = simulate(s0, None, T=6.0, seed=404, cfg=cfg, samples=3)
    p = path.x[-1, 0, 0]
    se = np.sqrt((2.0 / 3.0) * (1.0 / 3.0) / N)
    assert abs(p - 2.0 / 3.0) < 4.0 * se


def test_policy_sampled_at_interval_midpoints():
    # the policy "switch from t = 0.5 on" as the path of its interval-midpoint samples
    cfg = switch_cfg(lam=10.0)
    stack = Control.of_steps([[[0, 1]], [[1, 1]]])
    N = 50
    s0 = CountState(counts=np.array([[N, 0]]), N=N)
    path = simulate(s0, stack, T=1.0, seed=8, cfg=cfg, samples=2)
    npt.assert_array_equal(path.counts[1], path.counts[0])  # silent first half
    assert path.counts[2][0, 0] < 10  # second half drains state (1,1)


def test_sink_variant_events_drop_to_bottom():
    n = 3
    cfg = GameConfig(
        n=n, m=1,
        q_up=[[1.0], [1.0], [0.0]], q_down=np.zeros((n, 1)),
        q_up_evo=np.zeros((n, 1, 1)), q_down_evo=np.zeros((n, 1, 1)),
        w=np.ones((n, 1)), fee_B=np.zeros((1, 1)), fee_H=np.zeros(n),
        q_sink=SinkRates(direct=[[0.0], [1.5], [1.5]],
                         interaction=np.zeros((n, 1, 1))),
    )
    s0 = CountState(counts=np.array([[100], [0], [0]]), N=100)
    path = simulate(s0, None, T=4.0, seed=77, cfg=cfg, samples=4,
                    record_events=True)
    assert path.events > 0
    drops = [(s, d) for _, s, d in path.event_log if d < s]
    assert drops and all(d == 0 for _, d in drops)
    assert any(s == 2 for s, _ in drops)  # straight from the top level
    npt.assert_array_equal(path.counts.sum(axis=(1, 2)), np.full(5, 100))


def test_convergence_study_structure_and_guards():
    rng = np.random.default_rng(3)
    cfg = chain_cfg()
    x0 = np.array([[1.0], [0.0]])
    study = convergence_study(cfg, None, x0, T=1.0, N_list=(50, 200),
                              replications=3, seed=42, samples=5)
    assert list(study.N_values) == [50, 200]
    assert study.rmse.shape == (2,)
    assert study.times.shape == (6,)
    assert study.reference.shape == (6, 2, 1)
    assert set(study.means) == {50, 200}
    assert study.means[50].shape == (6, 2, 1)
    assert study.stderrs[200].shape == (6, 2, 1)
    assert np.isfinite(study.slope)
    assert study.replications == 3 and study.seed == 42
    with pytest.raises(ValueError):
        convergence_study(cfg, None, x0, 1.0, N_list=(200, 50),
                          replications=3, seed=1)
    with pytest.raises(ValueError):
        convergence_study(cfg, None, x0, 1.0, N_list=(50, 200),
                          replications=1, seed=1)


def test_convergence_study_summarizes_its_own_seeds():
    # the means are np.mean over the paths of the study's seeds, in bits, and
    # the standard errors the two-pass np.std (ddof 1) over sqrt(R)
    cfg = read_config(EXAMPLE)
    x0 = np.full((3, 3), 1 / 9)
    study = convergence_study(cfg, None, x0, 1.0, (30, 90), 5, 11, samples=6)
    for k, Nv in enumerate((30, 90)):
        paths = simulate(CountState.from_occupation(x0, Nv), None, 1.0,
                         range(11 + 5 * k, 16 + 5 * k), cfg, samples=6)
        xs = np.stack([p.x for p in paths])
        npt.assert_array_equal(study.means[Nv], xs.mean(axis=0))
        npt.assert_array_equal(study.stderrs[Nv], xs.std(axis=0, ddof=1) / np.sqrt(5))
    npt.assert_array_equal(study.times, paths[0].times)


def test_convergence_study_refuses_bad_output_grids_before_running(monkeypatch):
    def never(*args, **kw):
        raise AssertionError("ran before the output grid was checked")

    monkeypatch.setattr(hbmfg.simulator, "integrate_forward", never)
    monkeypatch.setattr(hbmfg.simulator, "simulate", never)
    cfg = chain_cfg()
    x0 = np.array([[1.0], [0.0]])
    for T, samples, why in ((1.0, 0, f"need 1 to {MAX_STEPS} output samples, got 0"),
                            (1.0, -1, f"need 1 to {MAX_STEPS} output samples, got -1"),
                            (0.0, 10, "need a finite T > 0")):
        with pytest.raises(ValueError) as refused:
            convergence_study(cfg, None, x0, T, (50, 200), 3, 1, samples=samples)
        assert str(refused.value) == why
        # simulate's own refusal reads the same
        with pytest.raises(ValueError) as direct:
            simulate(CountState(counts=[[50], [0]], N=50), None, T, 1, cfg, samples=samples)
        assert str(direct.value) == why


def _synthetic_paths(R, K, n, m, N=1000, seed=0):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, K)
    return [SimPath(times=times, counts=rng.integers(0, N, size=(K, n, m)), N=N, events=0,
                    seed=r) for r in range(R)]


@pytest.mark.parametrize("R", [1, 2, 3, 7, 16, 64, 200])
def test_replication_summary_is_the_numpy_reduction_in_bits(R):
    paths = _synthetic_paths(R, 11, 3, 2, seed=R)
    mean, stderr = replication_summary(paths)
    xs = np.stack([p.x for p in paths])
    npt.assert_array_equal(mean, xs.mean(axis=0))
    if R == 1:
        npt.assert_array_equal(stderr, np.zeros_like(mean))
    else:
        npt.assert_array_equal(stderr, xs.std(axis=0, ddof=1) / np.sqrt(R))


def test_replication_summary_holds_one_path_of_floats_at_a_time():
    # three paths of 100001 x 3 x 3 counts: the summary's peak stays below 4
    # float copies of one path; stacking the paths' x takes 3, and np.std of
    # the stack 3 more
    paths = _synthetic_paths(3, 100001, 3, 3)
    one = paths[0].counts.size * 8

    def peak(f):
        tracemalloc.start()
        try:
            f()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: replication_summary(paths)) < 4 * one
    assert peak(lambda: np.stack([p.x for p in paths]).std(axis=0, ddof=1)) >= 6 * one


def test_convergence_study_takes_a_per_interval_stack():
    # the kinetic reference holds each interval's target over its integration
    # steps; a constant path gives what its one matrix gives, bit for bit
    cfg = read_config(EXAMPLE)
    x0 = np.full((3, 3), 1 / 9)
    up = np.tile([1, 2, 2], (3, 1))
    stack = Control.of_steps([np.tile(np.arange(3), (3, 1))] * 5 + [up] * 5)
    study = convergence_study(cfg, stack, x0, 1.0, (50, 100), 2, 1, samples=10)
    assert np.all(np.isfinite(study.rmse))
    halves = (integrate_forward(x0, None, 0.0, 0.5, 5e-4, cfg).x[::200],
              integrate_forward(study.reference[5], up, 0.5, 1.0, 5e-4, cfg).x[::200])
    npt.assert_allclose(study.reference, np.concatenate([halves[0], halves[1][1:]]),
                        rtol=0, atol=1e-15)
    fixed = convergence_study(cfg, up, x0, 1.0, (50, 100), 2, 1, samples=10)
    const = convergence_study(cfg, Control.of_steps([up] * 10), x0, 1.0, (50, 100), 2, 1,
                              samples=10)
    npt.assert_array_equal(const.reference, fixed.reference)
    npt.assert_array_equal(const.rmse, fixed.rmse)
    with pytest.raises(ValueError, match="grid's 10 steps"):
        convergence_study(cfg, Control(stack.starts, stack.targets, 7), x0, 1.0,
                          (50, 100), 2, 1, samples=10)


def _lockstep_case(name):
    """(s0, u, T, samples, cfg) for one lockstep-versus-solo comparison."""
    rng = np.random.default_rng(17)
    if name == "example":
        cfg = read_config(EXAMPLE)
        return CountState.from_occupation(np.full((3, 3), 1 / 9), 300), None, 1.0, 5, cfg
    if name == "sink":
        cfg = make_config(3, 2, rng, delta=0.3, regime="id2", sink=True)
        return CountState.from_occupation(np.full((3, 2), 1 / 6), 200), None, 1.0, 4, cfg
    if name == "fixed-control":
        cfg = make_config(3, 2, rng, db=False, balanced_evo=False, delta=0.3,
                          regime="id2", lam=1.4)
        u = random_control(3, 2, rng)
        return CountState.from_occupation(np.full((3, 2), 1 / 6), 200), u, 1.0, 4, cfg
    if name == "policy":
        # three phases over six intervals of 0.25: a, then nobody switches, then b
        cfg = make_config(2, 2, rng, delta=0.2, regime="id2", lam=3.0)
        a, stay, b = np.array([[1, 1], [0, 1]]), np.array([[0, 1], [0, 1]]), np.zeros((2, 2), int)
        return (CountState.from_occupation(np.full((2, 2), 0.25), 100),
                Control.of_steps([a, a, stay, stay, b, b]), 1.5, 6, cfg)
    if name == "stalls-mid-run":
        # everyone switches to behaviour 2, where the total rate is 0, each
        # replication at its own time; from t = 1 everyone switches back
        there, back = np.array([[1, 1]]), np.array([[0, 0]])
        return (CountState(counts=np.array([[12, 0]]), N=12),
                Control.of_steps([there, there, back, back]), 2.0, 4, switch_cfg(lam=10.0))
    if name == "no-channels":
        return CountState(counts=np.array([[3, 2]]), N=5), None, 1.0, 2, switch_cfg()
    if name == "refills":
        cfg = read_config(EXAMPLE)
        return CountState.from_occupation(np.full((3, 3), 1 / 9), 5000), None, 0.2, 4, cfg
    if name == "absorbs-within-piece":
        # level 1 only drains: each replication's total rate reaches 0 at its
        # own time inside the one piece, after its 10th event
        return CountState(counts=np.array([[2], [10]]), N=12), None, 4.0, 8, chain_cfg(q_up0=0.0)
    if name == "sparse-events":
        # a handful of events over 40 nodes: replications cross several nodes
        # in consecutive steps
        return CountState(counts=np.array([[2], [1]]), N=3), None, 1.0, 40, chain_cfg()
    raise KeyError(name)


LOCKSTEP_CASES = ["example", "sink", "fixed-control", "policy", "stalls-mid-run", "no-channels",
                  "refills", "absorbs-within-piece", "sparse-events"]


def _lockstep_equals_solo(name):
    """The case's lockstep paths, each checked against its seed's solo run."""
    s0, u, T, samples, cfg = _lockstep_case(name)
    seeds = [5, 6, 1234, 2**40 + 3] if name == "refills" else list(range(20, 36))
    paths = simulate(s0, u, T, seeds, cfg, samples=samples)
    assert len(paths) == len(seeds)
    for seed, path in zip(seeds, paths):
        solo = simulate(s0, u, T, seed, cfg, samples=samples)
        assert path.seed == seed and path.events == solo.events
        assert path.counts.dtype == solo.counts.dtype
        npt.assert_array_equal(path.counts, solo.counts)
        npt.assert_array_equal(path.times, solo.times)
    return paths


@pytest.mark.parametrize("name", LOCKSTEP_CASES)
def test_lockstep_replications_equal_solo_runs(name):
    s0, u, T, samples, cfg = _lockstep_case(name)
    paths = _lockstep_equals_solo(name)
    events = [p.events for p in paths]
    if name == "stalls-mid-run":
        assert all(p.counts[2, 0, 0] == 0 for p in paths)
        assert all(e > 12 for e in events)
    if name == "no-channels":
        assert events == [0] * len(paths)
    if name == "refills":
        # two uniforms per event: every replication refills its buffer at least once
        assert 2 * min(events) > _ROW_WIDTH
    if name == "absorbs-within-piece":
        assert events == [10] * len(paths)
        assert all(p.counts[-1, 1, 0] == 0 for p in paths)
        absorbed = {int(np.argmax(p.counts[:, 1, 0] == 0)) for p in paths}
        assert len(absorbed) > 1 and max(absorbed) < samples
    if name == "sparse-events":
        assert max(events) < samples


def _spy_speculation(monkeypatch):
    """Count, per speculative step, the columns whose last event of the step
    is a failed guess inside the interval (mismatch), a node crossing or a
    stall after verified events, and the buffers refilled and the columns
    that left the piece between two steps."""
    seen = dict.fromkeys(("steps", "mismatch", "cross", "stall", "refill", "leave"), 0)
    speculate, refill = hbmfg.simulator._speculate, hbmfg.simulator._refill
    width = [None]

    def spy(c, rates, t, te, at, depth, *rest):
        out = speculate(c, rates, t, te, at, depth, *rest)
        _, sums, tn, _, ahead = out
        go, tot = tn <= te, sums[-2]
        seen["steps"] += 1
        seen["mismatch"] += int(np.sum((ahead < depth - 1) & go))
        seen["cross"] += int(np.sum((ahead > 0) & ~go & (tot > 0)))
        seen["stall"] += int(np.sum((ahead > 0) & (tot == 0)))
        seen["leave"] += width[0] is not None and c.shape[1] < width[0]
        width[0] = c.shape[1]
        return out

    def spy_refill(rng, rest, size):
        seen["refill"] += len(rest) > 0
        return refill(rng, rest, size)

    monkeypatch.setattr(hbmfg.simulator, "_speculate", spy)
    monkeypatch.setattr(hbmfg.simulator, "_refill", spy_refill)
    return seen


@pytest.mark.parametrize("name", LOCKSTEP_CASES)
def test_speculative_steps_equal_solo_runs(name, monkeypatch):
    # with the threshold at 2, every step takes at least 2 events per column:
    # each column keeps its verified events and then takes its last one as a
    # one-event step would; every path is still its seed's solo path
    monkeypatch.setattr(hbmfg.simulator, "_SPEC_MIN_K", 2)
    seen = _spy_speculation(monkeypatch)
    paths = _lockstep_equals_solo(name)
    assert seen["steps"] == paths[0].meta["lockstep_steps"]
    # each edge is met inside a speculative step, after verified events
    edges = {"example": ("mismatch", "cross", "refill", "leave"),
             "policy": ("mismatch", "cross", "leave"),
             "stalls-mid-run": ("cross", "stall", "leave"),
             "refills": ("mismatch", "cross", "refill", "leave"),
             "absorbs-within-piece": ("cross", "stall", "leave"),
             "sparse-events": ("cross", "leave")}
    for edge in edges.get(name, ()):
        assert seen[edge] > 0, edge
    if name == "no-channels":
        assert seen["steps"] == 0


def test_speculative_steps_keep_the_first_index_rule_on_ties(monkeypatch):
    # integer rates and uniforms on eighths put many picks exactly on a running
    # sum (a pick of 0 too); the event there is the first channel whose sum
    # passes the pick, in a speculative step's guesses as in the scalar loop
    def eighths(rng, rest, width):
        return np.concatenate((rest, rng.integers(0, 8, width - len(rest)) / 8.0))

    monkeypatch.setattr(hbmfg.simulator, "_refill", eighths)
    monkeypatch.setattr(hbmfg.simulator, "_SPEC_MIN_K", 2)
    seen = _spy_speculation(monkeypatch)
    cfg = GameConfig(n=3, m=2, q_up=[[1.0, 2.0], [3.0, 1.0], [0.0, 0.0]],
                     q_down=[[0.0, 0.0], [2.0, 1.0], [1.0, 3.0]],
                     q_up_evo=np.zeros((3, 2, 2)), q_down_evo=np.zeros((3, 2, 2)),
                     w=np.ones((3, 2)), fee_B=1.0 - np.eye(2), fee_H=np.zeros(3), lam=2.0)
    s0 = CountState(counts=np.array([[40, 30], [20, 30], [10, 20]]), N=150)
    u = np.array([[1, 1], [0, 0], [1, 0]])
    paths = simulate(s0, u, 0.5, range(8), cfg, samples=4)
    assert seen["steps"] == paths[0].meta["lockstep_steps"]
    for seed, path in enumerate(paths):
        solo = simulate(s0, u, 0.5, seed, cfg, samples=4)
        assert path.events == solo.events > 100
        npt.assert_array_equal(path.counts, solo.counts)


def _scalar_sums(counts, src, coeff, partner):
    # the scalar loop's running sums of one count column, channel 0's 0 first
    tot, sums = 0.0, [0.0]
    for s_, c_, p_ in zip(src.tolist(), coeff.tolist(), partner.tolist()):
        tot += c_ * int(counts[s_]) * int(counts[p_])
        sums.append(tot)
    return sums


def test_running_sums_are_the_scalar_loops_in_bits(monkeypatch):
    # the example's channels: the one-event step's running sums of random
    # count columns, and those a speculative step returns with each column's
    # last state, are the scalar loop's sums in bits
    cfg = read_config(EXAMPLE)
    src, _, coeff, partner = hbmfg.simulator._build_channels(cfg, None, 10000)
    take = np.concatenate(([9], src, [9, 9], partner, [9]))
    coeffs = np.concatenate(([0.0], coeff, [math.inf]))[:, None]
    counts = np.ones((10, 40))
    counts[:9] = np.random.default_rng(3).integers(0, 10000, size=(9, 40))
    sums = hbmfg.simulator._channel_rates(counts, take, coeffs)
    np.add.accumulate(sums, axis=0, out=sums)
    for r in range(40):
        assert sums[:-1, r].tolist() == _scalar_sums(counts[:, r], src, coeff, partner)
        assert sums[-1, r] == math.inf
    speculate, checked = hbmfg.simulator._speculate, []

    def check(*args):
        out = speculate(*args)
        for r in range(out[0].shape[1]):
            assert out[1][:-1, r].tolist() == _scalar_sums(out[0][:, r], src, coeff, partner)
        checked.append(out[0].shape[1])
        return out

    monkeypatch.setattr(hbmfg.simulator, "_speculate", check)
    simulate(CountState.from_occupation(np.full((3, 3), 1 / 9), 10000), None, 0.1,
             range(16), cfg, samples=10)
    assert checked and max(checked) == 16


def test_speculative_depth_is_a_power_of_two_within_its_cap():
    assert hbmfg.simulator._SPEC_MIN_K == 32
    depth = hbmfg.simulator._depth
    assert [depth(e, 64) for e in (0.0, 17.0, 31.9, 32.0, 63.9, 64.0, 167.0, math.inf)] == [
        1, 1, 1, 32, 32, 64, 64, 64]
    assert depth(167.0, 128) == 128 and depth(167.0, 40) == 32 and depth(167.0, 20) == 1
    assert depth(math.nan, 64) == 1


def test_benchmark_shapes_speculate_only_with_few_replications(monkeypatch):
    # perfbench's N = 1e4 x 16 simulation expects about 170 events per column
    # and interval: its steps speculate, at most 64 events per column
    # (1024 slots within the byte bound), in under an eighth of its busiest
    # replication's events.  At N = 1e3, 16 columns expect about 17 events
    # and 64 columns hold at most 16 slots each: one event per step, as before
    cfg = read_config(EXAMPLE)
    x0 = np.full((3, 3), 1 / 9)
    seen = _spy_speculation(monkeypatch)
    paths = simulate(CountState.from_occupation(x0, 10000), None, 0.1, range(16), cfg,
                     samples=10)
    assert paths[0].meta["lockstep_steps"] <= max(p.events for p in paths) / 8
    assert seen["steps"] > 0
    for seed in (0, 15):
        solo = simulate(CountState.from_occupation(x0, 10000), None, 0.1, seed, cfg, samples=10)
        assert paths[seed].events == solo.events
        npt.assert_array_equal(paths[seed].counts, solo.counts)
    for R in (16, 64):
        seen["steps"] = 0
        paths = simulate(CountState.from_occupation(x0, 1000), None, 0.1, range(R), cfg,
                         samples=10)
        assert seen["steps"] == 0
        assert paths[0].meta["lockstep_steps"] >= max(p.events for p in paths)


def test_speculative_steps_stay_within_the_byte_bound(monkeypatch):
    # what a speculative step allocates, traced, stays within _SPEC_BYTES,
    # with 16 columns of 64 events and with 3 of 128
    speculate = hbmfg.simulator._speculate
    peaks = []

    def traced(c, *rest):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = speculate(c, *rest)
        peaks.append(tracemalloc.get_traced_memory()[1] - held)
        return out

    monkeypatch.setattr(hbmfg.simulator, "_speculate", traced)
    cfg = read_config(EXAMPLE)
    s0 = CountState.from_occupation(np.full((3, 3), 1 / 9), 10000)
    for R in (16, 3):
        peaks.clear()
        tracemalloc.start()
        try:
            simulate(s0, None, 0.1, range(R), cfg, samples=10)
        finally:
            tracemalloc.stop()
        assert peaks and max(peaks) <= hbmfg.simulator._SPEC_BYTES


def test_lockstep_steps_fall_short_of_waiting_at_every_node():
    # a replication takes one step per event and one per node it passes; the
    # steps of a call are those of its busiest replication, fewer than if every
    # interval took as many steps as its busiest replication has events there
    cfg = read_config(EXAMPLE)
    s0 = CountState.from_occupation(np.full((3, 3), 1 / 9), 1000)
    seeds = list(range(100, 164))
    paths = simulate(s0, None, 0.1, seeds, cfg, samples=10)
    steps = paths[0].meta["lockstep_steps"]
    assert all(p.meta["lockstep_steps"] == steps for p in paths)
    per_interval = []
    for seed, path in zip(seeds, paths):
        solo = simulate(s0, None, 0.1, seed, cfg, samples=10, record_events=True)
        assert path.events == solo.events == len(solo.event_log)
        at = np.array([t for t, _, _ in solo.event_log])
        # an event at t lies in interval k when times[k] < t <= times[k + 1]
        k = np.searchsorted(solo.times, at, side="left") - 1
        per_interval.append(np.bincount(k, minlength=10))
    assert "lockstep_steps" not in solo.meta
    assert steps <= max(p.events + 10 for p in paths)
    assert steps < np.max(per_interval, axis=0).sum()


def test_simulate_refuses_a_negative_seed(monkeypatch):
    def no_generator(seed):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(np.random, "PCG64", no_generator)
    cfg = chain_cfg()
    s0 = CountState(counts=np.array([[5], [5]]), N=10)
    for seed in (-1, np.int64(-1), [3, -1], (-1, 2)):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
            simulate(s0, None, 1.0, seed, cfg)


def test_simulate_refuses_a_run_past_its_event_estimate(monkeypatch):
    # the estimate is each control piece's total rate at s0's counts times its
    # span, summed, times the replications; a run past MAX_STEPS is refused
    # before any generator is built, and one at it runs
    cfg = read_config(EXAMPLE)
    s0 = CountState.from_occupation(np.full((cfg.n, cfg.m), 1 / 9), 40)
    stay, down = np.tile(np.arange(cfg.m), (cfg.n, 1)), np.zeros((cfg.n, cfg.m), int)
    u = Control.of_steps([stay, stay, down, down, down])
    T, reps = 0.5, 3
    total = [sum(t.rate for t in enumerate_transitions(s0, target, cfg)) for target in (stay, down)]
    estimate = reps * (total[0] * 0.4 + total[1] * 0.6) * T
    build = np.random.PCG64

    def no_generator(seed):
        raise AssertionError("a generator was built")

    for seeds in (range(reps), [7] * reps):
        monkeypatch.setattr(np.random, "PCG64", no_generator)
        monkeypatch.setattr(hbmfg.simulator, "MAX_STEPS", math.floor(estimate))
        with pytest.raises(ValueError) as err:
            simulate(s0, u, T, seeds, cfg, samples=5)
        assert str(err.value) == (f"a simulation of an estimated {estimate:.6g} events exceeds "
                                  f"the bound of {math.floor(estimate)} events")
        monkeypatch.setattr(np.random, "PCG64", build)
        monkeypatch.setattr(hbmfg.simulator, "MAX_STEPS", math.ceil(estimate))
        assert len(simulate(s0, u, T, seeds, cfg, samples=5)) == reps


def test_lockstep_rejects_event_log_and_empty_seed_list():
    cfg = chain_cfg()
    s0 = CountState(counts=np.array([[5], [5]]), N=10)
    with pytest.raises(ValueError):
        simulate(s0, None, 1.0, [1, 2], cfg, record_events=True)
    with pytest.raises(ValueError):
        simulate(s0, None, 1.0, [], cfg)
