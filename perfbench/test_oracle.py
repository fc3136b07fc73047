"""Tests of the benchmark's own oracle and bookkeeping.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

import checks
import oracle as O
import run

HERE = os.path.dirname(os.path.abspath(__file__))


def doc_2x2():
    """n = m = 2, regime id2 at delta 0.5, so delta_int = delta_dis = 0.5."""
    return {
        "dimensions": {"n": 2, "m": 2},
        "rates": {
            "q_up": [[1.0, 2.0], [0.0, 0.0]],
            "q_down": [[0.0, 0.0], [3.0, 4.0]],
            "q_up_evo": [[[0.1, 0.2], [0.3, 0.4]], [[0.0, 0.0], [0.0, 0.0]]],
            "q_down_evo": [[[0.0, 0.0], [0.0, 0.0]], [[0.5, 0.6], [0.7, 0.8]]],
        },
        "economics": {"w": [[1.0, 1.0], [1.0, 1.0]],
                      "fee_B": [[0.0, 0.25], [0.5, 0.0]],
                      "fee_H": [0.0, 0.75]},
        "scales": {"lambda": 2.0, "delta": 0.5, "regime": "id2"},
    }


def test_hand_worked_2x2():
    # x = [[.1, .2], [.3, .4]]; agents at (1,1) switch to (1,2).
    # Stimulated rates: up 0.05, 0.11 on level 1; down 0.39, 0.53 on level 2,
    # so the total rates are up 1.025, 2.055 and down 3.195, 4.265.
    #   dx11 = -1.025*.1 + 3.195*.3 - 2*.1 =  0.656
    #   dx12 = -2.055*.2 + 4.265*.4 + 2*.1 =  1.495
    #   dx21 =  1.025*.1 - 3.195*.3        = -0.856
    #   dx22 =  2.055*.2 - 4.265*.4        = -1.295
    # With g = [[1, 2], [3, 4]]:
    #   dg11 = .5*1 - 1 - 1.025*(3-1) - 2*(2-1-.25)  = -4.05
    #   dg12 = .5*2 - 1 - 2.055*(4-2)                = -4.11
    #   dg21 = .5*3 - 1 - 3.195*(1-3-.75)            =  9.28625
    #   dg22 = .5*4 - 1 - 4.265*(2-4-.75)            = 12.72875
    model = O.Model(doc_2x2())
    gen = O.Generator(model)
    x = np.array([0.1, 0.2, 0.3, 0.4])
    g = np.array([1.0, 2.0, 3.0, 4.0])
    u = np.zeros((2, 2, 2))
    u[0, 0, 1] = 1.0
    assert np.allclose(gen.forward(x, u), [0.656, 1.495, -0.856, -1.295], rtol=0, atol=1e-14)
    assert np.allclose(gen.payoff(g, x, u), [-4.05, -4.11, 9.28625, 12.72875],
                       rtol=0, atol=1e-13)


def random_doc(rng, n, m, sink=False):
    q_up = np.zeros((n, m))
    q_up[:-1] = rng.uniform(0.3, 2.0, (n - 1, m))
    q_down = np.zeros((n, m))
    que = np.zeros((n, m, m))
    que[:-1] = rng.uniform(0.1, 0.6, (n - 1, m, m))
    qde = np.zeros((n, m, m))
    rates = {"q_up": q_up.tolist(), "q_up_evo": que.tolist()}
    if sink:
        direct = np.zeros((n, m))
        direct[1:] = rng.uniform(0.3, 2.0, (n - 1, m))
        inter = np.zeros((n, m, m))
        inter[1:] = rng.uniform(0.1, 0.6, (n - 1, m, m))
        rates["q_sink"] = {"direct": direct.tolist(), "interaction": inter.tolist()}
    else:
        q_down[1:] = rng.uniform(0.3, 2.0, (n - 1, m))
        qde[1:] = rng.uniform(0.1, 0.6, (n - 1, m, m))
    rates.update(q_down=q_down.tolist(), q_down_evo=qde.tolist())
    fee_B = rng.uniform(0.0, 2.0, (m, m))
    np.fill_diagonal(fee_B, 0.0)
    return {
        "dimensions": {"n": n, "m": m},
        "rates": rates,
        "economics": {"w": rng.uniform(0.0, 2.0, (n, m)).tolist(), "fee_B": fee_B.tolist(),
                      "fee_H": rng.uniform(0.0, 1.0, n).tolist()},
        "scales": {"lambda": float(rng.uniform(0.5, 2.0)), "delta": 0.3, "regime": "id2"},
    }


def random_control(rng, n, m):
    u = np.zeros((n, m, m))
    target = rng.integers(-1, m, size=(n, m))
    for i in range(n):
        for j in range(m):
            if target[i, j] >= 0 and target[i, j] != j:
                u[i, j, target[i, j]] = 1.0
    return u


@pytest.mark.parametrize("sink", [False, True])
def test_duality_on_random_configs(sink):
    rng = np.random.default_rng(11)
    for case in range(40):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        gen = O.Generator(O.Model(random_doc(rng, n, m, sink)))
        x = rng.dirichlet(np.ones(n * m))
        g = rng.normal(size=n * m)
        u = random_control(rng, n, m)
        lhs = float(x @ gen.apply(g, x, u))
        rhs = float(gen.forward(x, u) @ g)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), case
        assert abs(float(gen.forward(x, u).sum())) <= 1e-14


def test_fine_charged_on_every_downward_edge():
    rng = np.random.default_rng(12)
    for sink in (False, True):
        model = O.Model(random_doc(rng, 3, 2, sink))
        gen = O.Generator(model)
        down = gen.dst // model.m < gen.src // model.m
        assert down.any()
        assert np.array_equal(gen.cost[down], model.fee_H[gen.src[down] // model.m])
        assert np.all(gen.cost[~down] == 0.0)


def test_best_response_threshold_and_ties():
    model = O.Model(doc_2x2())
    # level 1: the gain of 1 -> 2 is exactly fee-neutral, so nobody moves;
    # level 2: 2 -> 1 gains 1.5 - 0.5 = 1.
    g = np.array([[0.0, 0.25], [1.5, 0.0]])
    u = O.best_response(g, model)
    assert u[0].sum() == 0.0
    assert u[1, 1, 0] == 1.0 and u[1].sum() == 1.0
    # three columns, equal best gains: the lower target index wins
    doc = random_doc(np.random.default_rng(1), 2, 3)
    doc["economics"]["fee_B"] = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    u = O.best_response(np.array([[0.0, 2.0, 2.0], [0.0, 0.0, 0.0]]), O.Model(doc))
    assert u[0, 0, 1] == 1.0 and u[0, 0, 2] == 0.0


def test_rk4_against_closed_forms():
    # pure decay out of the lower level: x(T) = exp(-T)
    doc = random_doc(np.random.default_rng(2), 2, 1)
    doc["rates"]["q_up"] = [[1.0], [0.0]]
    doc["rates"]["q_down"] = [[0.0], [0.0]]
    doc["rates"]["q_up_evo"] = [[[0.0]], [[0.0]]]
    doc["rates"]["q_down_evo"] = [[[0.0]], [[0.0]]]
    xs = O.integrate_forward(O.Generator(O.Model(doc)), [1.0, 0.0], 1.0, 100)
    assert abs(xs[-1, 0] - math.exp(-1.0)) < 1e-9
    # one state: g(0) = w / delta * (1 - exp(-delta T))
    one = {"dimensions": {"n": 1, "m": 1},
           "rates": {"q_up": [[0.0]], "q_down": [[0.0]], "q_up_evo": [[[0.0]]],
                     "q_down_evo": [[[0.0]]]},
           "economics": {"w": [[2.0]], "fee_B": [[0.0]], "fee_H": [0.0]},
           "scales": {"lambda": 1.0, "delta": 0.5, "regime": "id2"}}
    gs = O.integrate_backward(O.Generator(O.Model(one)), [0.0], np.full((201, 1), 1.0), 4.0)
    assert abs(gs[0, 0] - 2.0 / 0.5 * (1.0 - math.exp(-2.0))) < 1e-9


def test_rounded_counts_largest_remainder():
    counts = O.rounded_counts(np.full(9, 1.0 / 9.0), 1000)
    assert counts.sum() == 1000 and counts[0] == 112 and np.all(counts[1:] == 111)
    assert list(O.rounded_counts([0.26, 0.74], 10)) == [3, 7]


def test_t_quantile():
    assert abs(checks.t_quantile(15, 0.025) - 2.1314) < 2e-3
    assert abs(checks.t_quantile(1000, 0.005) - 2.5808) < 5e-3


def test_sampler_scaling():
    """Stretches between samples count at the speed of the samples around them."""
    s = run.Sampler()
    ref = run.REF_SECONDS
    # Samples at 1.0 and 3.0 (each 0.1 long): the machine at full speed
    # until 1.0, at half speed from 1.1 on.
    for t0, r in ((1.0, ref), (3.0, 2 * ref)):
        s.start_t.append(t0)
        s.end_t.append(t0 + 0.1)
        s.ref.append(r)
    assert math.isclose(s.scaled(0.5, 0.9), 0.4)           # before the first sample
    assert math.isclose(s.scaled(3.5, 4.0), 0.25)          # after the last
    # 0.5 before the first sample at speed 1, 1.9 between them at 0.75,
    # 0.9 after the second at 0.5; the samples' own 0.2 left out.
    assert math.isclose(s.scaled(0.5, 4.0), 0.5 + 1.9 * 0.75 + 0.9 * 0.5)
    assert math.isclose(s.spent(), 0.2)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in run.W.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
