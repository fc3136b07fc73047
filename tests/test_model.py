from __future__ import annotations

import dataclasses
import re

import numpy as np
import numpy.testing as npt
import pytest

from hbmfg import (
    Control,
    CountState,
    GameConfig,
    Occupation,
    Regime,
    SinkRates,
    boundary_tangent_condition,
    consistency_margin,
    dominant_level,
    effective_rewards,
    enumerate_transitions,
    hjb_rhs,
    integrate_backward,
    integrate_forward,
    kinetic_rhs,
    optimal_control,
    regime_scales,
    simulate,
    solve_mfg,
    validate,
)
from hbmfg.model import BALANCE_TOL, balance_gap, column_balance_gaps, control_pieces
from hbmfg.stability import StabilityError, build_reduced_linearization
from hbmfg.stationary import StationaryError, build_level_chain, stationary_solution
from util_configs import make_config


def test_regime_scales():
    assert regime_scales(Regime.ID1, 0.1) == (0.1 * 0.1, 0.1)
    assert regime_scales(Regime.ID2, 0.1) == (0.1, 0.1)
    assert regime_scales(Regime.ID3, 0.1) == (0.1, 0.1 * 0.1)


def _tiny(n=2, m=2, **kw):
    base = dict(
        n=n, m=m,
        q_up=[[1.0] * m] + [[0.0] * m] * (n - 1),
        q_down=[[0.0] * m] + [[1.0] * m] * (n - 1),
        q_up_evo=np.zeros((n, m, m)),
        q_down_evo=np.zeros((n, m, m)),
        w=np.ones((n, m)),
        fee_B=1.0 - np.eye(m),
        fee_H=np.zeros(n),
    )
    base.update(kw)
    return GameConfig(**base)


def test_config_derives_scales_from_regime():
    cfg = _tiny(delta=0.2, regime=Regime.ID1)
    assert cfg.delta_int == pytest.approx(0.04)
    assert cfg.delta_dis == pytest.approx(0.2)
    cfg3 = _tiny(delta=0.2, regime="id3")  # string form accepted
    assert cfg3.regime is Regime.ID3
    assert cfg3.delta_dis == pytest.approx(0.04)
    # both scales are derived: neither is an argument, and replace() re-derives them
    for name in ("delta_int", "delta_dis"):
        with pytest.raises(TypeError, match=name):
            _tiny(delta=0.2, **{name: 0.5})
    assert dataclasses.replace(cfg, regime=Regime.ID3).delta_dis == pytest.approx(0.04)


def test_config_arrays_are_read_only():
    cfg = _tiny()
    with pytest.raises(ValueError):
        cfg.q_up[0, 0] = 9.0


def test_variant_flag():
    npt.assert_array_equal(_tiny(n=3).moves.dest[1], [0, 0, 1])
    sink = _tiny(
        n=3,
        q_down=np.zeros((3, 2)),
        q_sink=SinkRates(direct=np.ones((3, 2)), interaction=np.zeros((3, 2, 2))),
    )
    npt.assert_array_equal(sink.moves.dest[1], [0, 0, 0])


def test_validate_clean_on_generated_configs():
    rng = np.random.default_rng(7)
    for db in (True, False):
        cfg = make_config(3, 3, rng, db=db, fine=0.1)
        assert validate(cfg) == []


def test_validate_catches_boundary_and_sign_problems():
    bad = _tiny(q_up=[[1.0, 1.0], [0.5, 0.0]])  # top row must be zero
    msgs = validate(bad)
    assert any("q_up row 2" in m for m in msgs)

    neg = _tiny(w=[[1.0, 1.0], [1.0, 1.0]], q_down=[[0.0, 0.0], [-1.0, 1.0]])
    msgs = validate(neg)
    assert any("negative rate" in m and "q_down[2,1]" in m for m in msgs)

    fee = _tiny(fee_B=[[0.5, 1.0], [1.0, 0.0]])
    assert any("diagonal" in m for m in validate(fee))

    lam = _tiny(lam=-1.0)
    assert any("lambda" in m for m in validate(lam))

    # the move table is built on first use, so a malformed shape is reported
    shape = _tiny(q_down=np.zeros((3, 2)))
    assert any("q_down: expected shape (2, 2)" in m for m in validate(shape))


def test_validate_detailed_balance_identity():
    cfg = _tiny(q_down=[[0.0, 0.0], [1.0, 2.0]], detailed_balance=True)
    msgs = validate(cfg)
    assert "detailed_balance: q_up[1,2] != q_down[2,2] (1.0 vs 2.0)" in msgs


def test_detailed_balance_decided_alike():
    # one link gap just inside, then just outside the relative tolerance: the
    # validator, the level chain, the stationary expansion and the
    # linearization all accept or all reject
    rng = np.random.default_rng(19)
    base = make_config(3, 3, rng, db=True, balanced_evo=True, delta=0.05)
    q_up = base.q_up.copy()
    q_up[:-1] = rng.uniform(9.5, 10.5, size=(2, 3))
    for factor, balanced in ((0.5, True), (2.0, False)):
        q_down = np.zeros_like(q_up)
        q_down[1:] = q_up[:-1]
        q_down[2, 1] += factor * BALANCE_TOL * float(q_up.max())
        cfg = dataclasses.replace(base, q_up=q_up, q_down=q_down)
        msgs = validate(cfg)
        assert len(msgs) == (0 if balanced else 1)
        assert all(m.startswith("detailed_balance: q_up[2,2]") for m in msgs)
        verdicts = [not msgs, build_level_chain(1, cfg).detailed_balance]
        for build, error in ((stationary_solution, StationaryError),
                             (build_reduced_linearization, StabilityError)):
            try:
                build(cfg)
                verdicts.append(True)
            except error as e:
                assert "detailed-balanced" in str(e)
                verdicts.append(False)
        assert verdicts == [balanced] * 4, (factor, verdicts, msgs)


def test_validate_memo_gives_each_config_its_own_violations():
    # one memo across configs that differ in one array element (sign, nan,
    # -0.0), in an array's shape alone, in n or m, in the balance flag, the
    # sink, or the scales alone: each gets validate's own list, in order
    rng = np.random.default_rng(23)
    base = make_config(3, 3, rng, db=True, fine=0.1)
    sink = make_config(3, 3, rng, sink=True)
    cfgs = [base, sink, dataclasses.replace(base, delta=-1.0),
            dataclasses.replace(base, lam=float("nan"), delta=1e200),
            dataclasses.replace(base, n=2), dataclasses.replace(base, m=4),
            dataclasses.replace(base, q_up=base.q_up.reshape(9)),
            dataclasses.replace(base, w=base.w.reshape(1, 9)),
            dataclasses.replace(base, q_sink=sink.q_sink),
            dataclasses.replace(sink, q_down=np.zeros((3, 3)), delta=0.5)]   # a fresh copy
    for name in ("q_up", "q_down", "q_up_evo", "q_down_evo", "w", "fee_B", "fee_H"):
        for value in (-0.5, float("nan"), -0.0, 7.0):
            a = getattr(base, name).copy()
            a.flat[int(rng.integers(1, a.size))] = value
            cfgs.append(dataclasses.replace(base, **{name: a}))
    q_down = base.q_down.copy()
    q_down[1, 0] += 0.25
    cfgs += [dataclasses.replace(base, q_down=q_down, detailed_balance=flag)
             for flag in (True, False)]
    want = [validate(cfg) for cfg in cfgs]
    assert sum(map(bool, want)) > len(cfgs) // 2
    memo = {}
    for k in np.concatenate([rng.permutation(len(cfgs)) for _ in range(3)]):
        assert validate(cfgs[k], memo) == want[k], k
    # the three that differ from base or sink in their scales alone share its entry
    assert len(memo) == len(cfgs) - 3


def test_column_balance_gaps_are_each_columns_worst_link():
    # each column's gap in the bits of its own worst link over the common
    # scale, and the worst column's is balance_gap's; a nan link gives nan
    rng = np.random.default_rng(29)
    for n in (1, 2, 5):
        for db in (True, False):
            cfg = make_config(n, 3, rng, db=db)
            gaps = column_balance_gaps(cfg)
            up, down = cfg.q_up[:-1], cfg.q_down[1:]
            scale = max([1.0] + np.abs(np.concatenate([up, down])).ravel().tolist())
            for j in range(3):
                worst = max(np.abs(up[:, j] - down[:, j]).tolist(), default=0.0)
                assert repr(float(gaps[j])) == repr(worst / scale), (n, db, j)
            assert repr(float(gaps.max())) == repr(balance_gap(cfg)[0])
    q_up = cfg.q_up.copy()
    q_up[0, 1] = np.nan
    gaps = column_balance_gaps(dataclasses.replace(cfg, q_up=q_up))
    assert np.isnan(gaps[1]) and not np.isnan(gaps[[0, 2]]).any()


def test_validate_sink_exclusivity():
    sink = _tiny(
        q_sink=SinkRates(direct=np.ones((2, 2)), interaction=np.zeros((2, 2, 2))),
    )
    # q_down row 2 still carries rates: mixing must be flagged
    msgs = validate(sink)
    assert any("pick one downward mechanism" in m for m in msgs)


def test_validate_gives_sink_drops_the_step_down_rules():
    base = make_config(3, 2, np.random.default_rng(5), sink=True)
    assert validate(base) == []
    sink = base.q_sink

    def with_sink(direct=sink.direct, interaction=sink.interaction):
        return dataclasses.replace(base, q_sink=SinkRates(direct, interaction))

    direct, inter = sink.direct.copy(), sink.interaction.copy()
    direct[0, 1], inter[0, 0, 1] = 0.5, 0.5  # the lowest level cannot drop
    msgs = validate(with_sink(direct, inter))
    assert [v.split(":")[0] for v in msgs] == ["q_sink.direct row 1 nonzero",
                                               "q_sink.interaction row 1 nonzero"]
    direct = sink.direct.copy()
    direct[1, 0] = -0.25
    assert validate(with_sink(direct)) == ["q_sink.direct[2,1]: negative rate -0.25"]
    # an empty tensor is a shape violation, not a numpy error
    assert validate(with_sink(interaction=[])) == [
        "q_sink.interaction: expected shape (3, 2, 2), got (0,)"]


def test_effective_rewards_hand_case():
    cfg = _tiny(
        w=[[2.0, 1.0], [1.0, 3.0]],
        q_down=[[0.0, 0.0], [1.0, 2.0]],
        fee_H=[0.5, 1.0],
    )
    npt.assert_allclose(effective_rewards(cfg), [[2.0, 1.0], [0.0, 1.0]])
    # sink variant: the fine is charged on the drop rates; row 1 never drops
    sink = _tiny(
        w=[[2.0, 1.0], [1.0, 3.0]],
        q_down=np.zeros((2, 2)),
        fee_H=[0.5, 1.0],
        q_sink=SinkRates(direct=[[4.0, 4.0], [0.5, 3.0]], interaction=np.zeros((2, 2, 2))),
    )
    npt.assert_allclose(effective_rewards(sink), [[2.0, 1.0], [0.5, 0.0]])


def test_dominant_level_report():
    cfg = _tiny(w=[[2.0, 1.0], [1.0, 3.0]])  # column sums 3 and 4
    rep = dominant_level(cfg)
    assert rep.level == 1
    assert rep.unique and rep.nonzero_sums
    npt.assert_allclose(rep.column_sums, [3.0, 4.0])


def test_dominant_level_tie_detected():
    cfg = _tiny(w=[[2.0, 1.0], [1.0, 2.0]])
    rep = dominant_level(cfg)
    assert not rep.unique


def test_dominant_level_zero_sum_detected():
    cfg = _tiny(w=[[1.0, 1.0], [-1.0, 2.0]])
    rep = dominant_level(cfg)
    assert not rep.nonzero_sums


def test_occupation_simplex_checks():
    Occupation(np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        Occupation(np.array([[0.5, 0.5], [0.5, -0.5]]))
    with pytest.raises(ValueError):
        Occupation(np.full((2, 2), 0.3))
    u = Occupation.uniform(3, 4)
    assert u.x.shape == (3, 4)
    assert u.x.sum() == pytest.approx(1.0)


def test_control_checks():
    stay = Control.stay(2, 3, 4)
    npt.assert_array_equal(stay.starts, [0])
    npt.assert_array_equal(stay.targets, [[[0, 1, 2], [0, 1, 2]]])
    assert stay.n_steps == 4
    good = Control([0], [np.array([[1, 1], [0, 0]])], 4)
    assert not good.targets.flags.writeable
    with pytest.raises(ValueError, match="integer"):
        Control([0], [np.full((2, 2), 0.5)], 4)
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        Control([0], [np.array([[0, 1], [-1, 1]])], 4)
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        Control([0], [np.array([[0, 1, 3]])], 4)


def test_control_path_of_steps_starts_a_piece_where_the_stack_changes():
    # a piece starts at step 0 and wherever a step's targets differ from the
    # step before; the pieces hold the targets once each
    u = np.array([[1, 0], [0, 1], [1, 1]])
    v = (u + 1) % 2
    path = Control.of_steps(np.array([u, u, v, v, v, u]))
    npt.assert_array_equal(path.starts, [0, 2, 5])
    npt.assert_array_equal(path.targets, [u, v, u])
    assert path.n_steps == 6 and path.nbytes == 3 * 8 + 3 * 6 * 8
    assert [(a, b) for a, b, _ in control_pieces(path, 6, 3, 2)] == [(0, 2), (2, 5), (5, 6)]
    assert not path.targets.flags.writeable
    # a fixed control is one piece, as a path and as an integrator's control
    fixed = Control.of_steps(np.array([u] * 3))
    npt.assert_array_equal(fixed.starts, [0])
    assert [(a, b) for a, b, _ in control_pieces(u, 3, 3, 2)] == [(0, 3)]
    assert [(a, b) for a, b, _ in control_pieces(fixed, 3, 3, 2)] == [(0, 3)]
    assert control_pieces(None, 3, 3, 2)[0][2] is None
    with pytest.raises(ValueError, match=r"\(3, 3, 2\).* 4 steps"):
        control_pieces(fixed, 4, 3, 2)
    # steps_differing counts the steps on which two paths' targets differ
    assert path.steps_differing(path) == 0
    with pytest.raises(ValueError, match="different grids"):
        path.steps_differing(fixed)
    other = Control.of_steps(np.array([u, v, v, v, u, u]))
    assert path.steps_differing(other) == other.steps_differing(path) == 2


def test_control_path_refuses_malformed_pieces():
    u = Control.stay(2, 3, 1).targets[0]
    for starts, targets, n_steps in (([1], [u], 4), ([0, 0], [u, u], 4), ([0, 4], [u, u], 4),
                                     ([0, 2], [u], 4), ([], np.empty((0, 2, 3), int), 4),
                                     ([0], u, 4), ([0], [u + 1], 4), ([0], [u * 0.5], 4),
                                     ([0, 1.5], [u, u], 4)):
        with pytest.raises(ValueError):
            Control(starts, targets, n_steps)
    for stack in (u, np.empty((0, 2, 3), int)):
        with pytest.raises(ValueError, match="stack of"):
            Control.of_steps(stack)


def test_tensor_control_is_rejected():
    # the (n, m, m) 0/1 decision tensor is not a control: every entry point
    # that takes one refuses it instead of reading it some other way
    rng = np.random.default_rng(4)
    cfg = make_config(2, 3, rng, lam=1.5)
    tensor = np.zeros((2, 3, 3))
    tensor[0, 0, 1] = 1.0
    x = np.full((2, 3), 1.0 / 6.0)
    with pytest.raises(ValueError, match="target matrix"):
        kinetic_rhs(x, tensor, cfg)
    with pytest.raises(ValueError, match="target matrix"):
        hjb_rhs(np.zeros((2, 3)), x, tensor, cfg)
    with pytest.raises(ValueError, match="target matrix"):
        simulate(CountState.from_occupation(x, 12), tensor, 1.0, 0, cfg)
    # the optimizing payoff plays its own best response: any control is refused
    for u in (tensor, Control.stay(2, 3, 4)):
        with pytest.raises(ValueError, match="takes no control"):
            integrate_backward(np.zeros((2, 3)), x, 0.0, 1.0, 0.25, cfg, mode="optimizing",
                               control=u)
    for bad in (tensor.astype(int), np.full((2, 3), 1.0), np.array([[0, 1, 3], [0, 1, 2]])):
        with pytest.raises(ValueError):
            Control([0], [bad], 1)
    # the stay-put matrix, bare or as a one-step control, is no switch at all,
    # and at lam = 0 neither is a moving target: every consumer of
    # GameConfig.switch_cells reads either as u=None
    stay = Control.stay(2, 3, 1)
    g = np.arange(6.0).reshape(2, 3)
    state = CountState.from_occupation(x, 12)
    moving = np.array([[1, 2, 0], [2, 0, 1]])
    still = dataclasses.replace(cfg, lam=0.0)
    for c, u in ((cfg, stay), (cfg, stay.targets[0]), (still, moving),
                 (still, Control([0], [moving], 1))):
        npt.assert_array_equal(kinetic_rhs(x, u, c), kinetic_rhs(x, None, c))
        npt.assert_array_equal(hjb_rhs(g, x, u, c), hjb_rhs(g, x, None, c))
        assert enumerate_transitions(state, u, c) == enumerate_transitions(state, None, c)
    # the moving target does switch at lam > 0
    assert len(enumerate_transitions(state, moving, cfg)) > len(
        enumerate_transitions(state, None, cfg))


# every entry point that takes a control, called on a 2 x 3 config; the
# integrators and the simulator run 4 steps, but a 4-step stack is no control
# form: its path is, and Control.of_steps refuses the stack's bad step
_CONTROL_ENTRY_POINTS = {
    "kinetic_rhs": lambda x, u, cfg: kinetic_rhs(x, u, cfg),
    "hjb_rhs": lambda x, u, cfg: hjb_rhs(np.zeros((2, 3)), x, u, cfg),
    "integrate_forward": lambda x, u, cfg: integrate_forward(x, u, 0.0, 1.0, 0.25, cfg),
    "integrate_backward": lambda x, u, cfg: integrate_backward(
        np.zeros((2, 3)), x, 0.0, 1.0, 0.25, cfg, mode="fixed", control=u),
    "simulate": lambda x, u, cfg: simulate(CountState.from_occupation(x, 12), u, 1.0, 0, cfg,
                                           samples=4),
    "enumerate_transitions": lambda x, u, cfg: enumerate_transitions(
        CountState.from_occupation(x, 12), u, cfg),
}


def _bad_target(kind):
    stay = Control.stay(2, 3, 1).targets[0]
    if kind == "float":
        return stay.astype(float)
    if kind == "stack":
        stack = np.stack([stay] * 4)
        stack[2, 0, 0] = 3
        return stack
    bad = stay.copy()
    if kind == "m":
        bad[0, 0] = 3
    else:
        bad[1, 0] = -1
    return bad


@pytest.mark.parametrize("kind", ["m", "minus-one", "float", "stack"])
@pytest.mark.parametrize("entry", sorted(_CONTROL_ENTRY_POINTS))
def test_every_entry_point_refuses_what_control_refuses(entry, kind):
    # unchecked, a target of m at level 1 (or -1 at level 2) would move agents
    # into the next (previous) level's cells
    cfg = make_config(2, 3, np.random.default_rng(4), lam=1.5)
    x = np.full((2, 3), 1.0 / 6.0)
    bad = _bad_target(kind)
    with pytest.raises(ValueError):
        Control([0], [bad], 4)
    with pytest.raises(ValueError):
        _CONTROL_ENTRY_POINTS[entry](x, bad, cfg)
    if kind == "stack":
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            Control.of_steps(bad)


@pytest.mark.parametrize("shape", [(3,), (1, 3), (3, 2), (2, 2, 3)])
@pytest.mark.parametrize("entry", ["hjb_rhs", "integrate_backward", "integrate_forward",
                                   "kinetic_rhs"])
def test_every_entry_point_refuses_a_misshaped_occupation(entry, shape):
    # on the 2 x 3 config, (3,) and (1, 3) would broadcast across the levels
    # and (2, 2, 3) would run as a stack; integrate_backward takes a node
    # path of 5 nodes, so (2, 2, 3) is a path of the wrong length
    cfg = make_config(2, 3, np.random.default_rng(4), lam=1.5)
    x = np.full(shape, 1.0 / np.prod(shape))
    with pytest.raises(ValueError, match=rf"occupation (path )?of shape {re.escape(str(shape))}"):
        _CONTROL_ENTRY_POINTS[entry](x, None, cfg)


_PAYOFF_ENTRY_POINTS = {
    "hjb_rhs": lambda g, x, cfg: hjb_rhs(g, x, None, cfg),
    "optimal_control": lambda g, x, cfg: optimal_control(g, cfg),
    "consistency_margin": lambda g, x, cfg: consistency_margin(g, x, cfg),
    "boundary_tangent_condition": lambda g, x, cfg: boundary_tangent_condition(g, x, cfg, 0, 0, 1),
    "integrate_backward": lambda g, x, cfg: integrate_backward(g, x, 0.0, 1.0, 0.25, cfg,
                                                               mode="optimizing"),
    "solve_mfg": lambda g, x, cfg: solve_mfg(x, g, 1.0, 0.25, cfg),
}


@pytest.mark.parametrize("shape", [(3,), (1, 3), (3, 3), (2, 3, 1)])
@pytest.mark.parametrize("entry", sorted(_PAYOFF_ENTRY_POINTS))
def test_every_entry_point_refuses_a_misshaped_payoff(entry, shape):
    # on the 2 x 3 config, (3,) and (1, 3) would broadcast across the levels,
    # (3, 3) has a level too many and (2, 3, 1) would run as a stack
    cfg = make_config(2, 3, np.random.default_rng(4), lam=1.5)
    x = np.full((2, 3), 1.0 / 6.0)
    with pytest.raises(ValueError, match=rf"payoff of shape {re.escape(str(shape))}"):
        _PAYOFF_ENTRY_POINTS[entry](np.zeros(shape), x, cfg)
