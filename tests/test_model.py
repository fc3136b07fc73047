from __future__ import annotations

import dataclasses

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
    dominant_level,
    effective_rewards,
    enumerate_transitions,
    hjb_rhs,
    integrate_backward,
    integrate_forward,
    kinetic_rhs,
    regime_scales,
    simulate,
    validate,
)
from hbmfg.model import BALANCE_TOL
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
    # explicit overrides win; validate() flags the mismatch instead
    odd = _tiny(delta=0.2, delta_int=0.5)
    assert odd.delta_int == 0.5
    assert any("delta_int" in msg for msg in validate(odd))


def test_config_arrays_are_read_only():
    cfg = _tiny()
    with pytest.raises(ValueError):
        cfg.q_up[0, 0] = 9.0


def test_variant_flag():
    assert _tiny().variant == "standard"
    sink = _tiny(
        q_down=np.zeros((2, 2)),
        q_sink=SinkRates(direct=np.ones((2, 2)), interaction=np.zeros((2, 2, 2))),
    )
    assert sink.variant == "sink"


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
    assert any("detailed_balance" in m and "q_up[1,2]" in m for m in msgs)


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


def test_validate_sink_exclusivity():
    sink = _tiny(
        q_sink=SinkRates(direct=np.ones((2, 2)), interaction=np.zeros((2, 2, 2))),
    )
    # q_down row 2 still carries rates: mixing must be flagged
    msgs = validate(sink)
    assert any("pick one downward mechanism" in m for m in msgs)


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
    assert rep.level_1based == 2
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
    npt.assert_array_equal(Control.stay(2, 3).target, [[0, 1, 2], [0, 1, 2]])
    good = Control(np.array([[1, 1], [0, 0]]))
    assert not good.target.flags.writeable
    with pytest.raises(ValueError):
        Control(np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        Control(np.array([[0, 1], [-1, 1]]))
    with pytest.raises(ValueError):
        Control(np.array([[0, 1, 3]]))


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
    for bad in (tensor.astype(int), np.full((2, 3), 1.0), np.array([[0, 1, 3], [0, 1, 2]])):
        with pytest.raises(ValueError):
            Control(bad)
    stay = Control.stay(2, 3)
    npt.assert_array_equal(kinetic_rhs(x, stay, cfg), kinetic_rhs(x, None, cfg))
    npt.assert_array_equal(hjb_rhs(np.ones((2, 3)), x, stay, cfg),
                           hjb_rhs(np.ones((2, 3)), x, None, cfg))


# every entry point that takes a control, called on a 2 x 3 config; the
# integrators and the simulator run 4 steps, so a 4-step stack is their form
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
    stay = Control.stay(2, 3).target
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
        Control(bad)
    with pytest.raises(ValueError):
        _CONTROL_ENTRY_POINTS[entry](x, bad, cfg)
