from __future__ import annotations

from dataclasses import replace

import hbmfg.stationary
import numpy as np
import numpy.testing as npt
import pytest

from hbmfg import (
    DegenerateChainError,
    GameConfig,
    Regime,
    StationaryError,
    build_level_chain,
    dominant_level,
    effective_rewards,
    kinetic_rhs,
    kernel_product_forms,
    solve_on_complement,
    stationary_residual,
    stationary_solution,
    validate,
)
from test_kinetics import column_generator
from util_configs import make_config, nondb_pressure


def two_level_cfg(q_up0=1.0, q_down1=2.0, w=((3.0,), (1.0,)), **kw):
    base = dict(
        n=2, m=1,
        q_up=[[q_up0], [0.0]], q_down=[[0.0], [q_down1]],
        q_up_evo=np.zeros((2, 1, 1)), q_down_evo=np.zeros((2, 1, 1)),
        w=np.asarray(w), fee_B=np.zeros((1, 1)), fee_H=np.zeros(2),
        delta=0.1,
    )
    base.update(kw)
    return GameConfig(**base)


def test_chain_matrix_matches_dense_oracle():
    rng = np.random.default_rng(12)
    cfg = make_config(5, 3, rng, db=False)
    for j in range(cfg.m):
        chain = build_level_chain(j, cfg)
        npt.assert_allclose(chain.A, column_generator(j, cfg), atol=0)
        assert not chain.detailed_balance
        # generator structure: columns sum to zero
        npt.assert_allclose(chain.A.sum(axis=0), 0.0, atol=1e-15)
        assert np.linalg.matrix_rank(chain.A) == cfg.n - 1


def test_chain_is_the_move_tables_sink_included():
    rng = np.random.default_rng(13)
    for sink in (False, True):
        cfg = make_config(5, 3, rng, db=False, with_evo=False, sink=sink)
        for j in range(cfg.m):
            x = np.zeros((cfg.n, cfg.m))
            x[:, j] = rng.dirichlet(np.ones(cfg.n))
            npt.assert_allclose(build_level_chain(j, cfg).A @ x[:, j],
                                kinetic_rhs(x, None, cfg)[:, j], rtol=0, atol=1e-14)


def test_kernel_frozen_two_level():
    chain = build_level_chain(0, two_level_cfg())
    npt.assert_allclose(kernel_product_forms(chain)[0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_kernel_product_forms_agree_off_balance():
    rng = np.random.default_rng(33)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        q_up, q_down = nondb_pressure(n, 1, rng)
        cfg = GameConfig(
            n=n, m=1, q_up=q_up, q_down=q_down,
            q_up_evo=np.zeros((n, 1, 1)), q_down_evo=np.zeros((n, 1, 1)),
            w=np.ones((n, 1)), fee_B=np.zeros((1, 1)), fee_H=np.zeros(n),
        )
        chain = build_level_chain(0, cfg)
        v_bottom, v_top = kernel_product_forms(chain)
        npt.assert_allclose(v_bottom, v_top, rtol=1e-12)
        assert v_bottom.min() > 0 and v_bottom.sum() == pytest.approx(1.0)
        npt.assert_allclose(chain.A @ v_bottom, 0.0, atol=1e-13)


def test_kernel_uniform_under_detailed_balance():
    rng = np.random.default_rng(4)
    cfg = make_config(5, 2, rng, db=True)
    v = kernel_product_forms(build_level_chain(1, cfg))[0]
    npt.assert_allclose(v, 0.2, atol=1e-14)


def test_degenerate_link_raises_with_level():
    cfg = two_level_cfg(q_up0=0.0)
    with pytest.raises(DegenerateChainError, match="level 1"):
        kernel_product_forms(build_level_chain(0, cfg))


def test_sink_chain_is_refused_by_name():
    # the chain connects all levels through its drops to level 1; the closed
    # forms read only one-level links, so they must refuse it, not call it cut
    cfg = make_config(3, 2, np.random.default_rng(1), with_evo=False, sink=True)
    chain = build_level_chain(0, cfg)
    with pytest.raises(StationaryError, match="sink variant") as err:
        kernel_product_forms(chain)
    assert not isinstance(err.value, DegenerateChainError)


def test_complement_sign_convention():
    # the solve returns z with A z = -y, never +y
    chain = build_level_chain(0, two_level_cfg(q_down1=1.0))
    z = solve_on_complement(chain, np.array([1.0, -1.0]))
    npt.assert_allclose(z, [0.5, -0.5], atol=1e-15)
    npt.assert_allclose(chain.A @ z, [-1.0, 1.0], atol=1e-15)


def test_solve_on_complement_vs_dense_least_squares():
    rng = np.random.default_rng(55)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        cfg = make_config(n, 1, rng, db=True, with_evo=False)
        chain = build_level_chain(0, cfg)
        y = rng.normal(size=n)
        y -= y.mean()
        z = solve_on_complement(chain, y)
        z_ls, *_ = np.linalg.lstsq(chain.A, -y, rcond=None)
        z_ls -= z_ls.mean()
        npt.assert_allclose(z, z_ls, atol=1e-10 * max(1.0, np.abs(z_ls).max()))


def test_solve_on_complement_rejects_biased_data():
    chain = build_level_chain(0, two_level_cfg(q_down1=1.0))
    with pytest.raises(StationaryError, match="mean"):
        solve_on_complement(chain, np.array([1.0, 0.0]))


def test_solve_on_complement_requires_detailed_balance():
    chain = build_level_chain(0, two_level_cfg())  # up 1, down 2
    with pytest.raises(StationaryError, match="detailed-balanced"):
        solve_on_complement(chain, np.array([1.0, -1.0]))


def test_g0_frozen_and_degenerate_column():
    g0 = stationary_solution(two_level_cfg(q_down1=1.0)).g0
    npt.assert_allclose(g0, [[2.0], [2.0]], atol=1e-15)
    dead = two_level_cfg(q_down1=1.0, w=((1.0,), (-1.0,)))
    with pytest.raises(StationaryError, match="column"):
        stationary_solution(dead)


def test_g1_frozen_two_level():
    cfg = two_level_cfg(q_down1=1.0)
    npt.assert_allclose(stationary_solution(cfg).g1, [[0.5], [-0.5]], atol=1e-14)


def test_g1_defining_equation_and_mean():
    rng = np.random.default_rng(71)
    cfg = make_config(5, 3, rng, db=True, fine=0.2)
    sol = stationary_solution(cfg)
    g0, g1 = sol.g0, sol.g1
    wt = effective_rewards(cfg)
    npt.assert_allclose(g1.sum(axis=0), 0.0, atol=1e-12)
    for j in range(cfg.m):
        A = column_generator(j, cfg)
        npt.assert_allclose(A @ g1[:, j], g0[:, j] - wt[:, j], atol=1e-11)


def test_g2_regimes():
    rng = np.random.default_rng(81)
    cfg1 = make_config(4, 2, rng, db=True, balanced_evo=True, regime=Regime.ID1)
    sol = stationary_solution(cfg1)
    g1, g2 = sol.g1, sol.g2
    for j in range(cfg1.m):
        A = column_generator(j, cfg1)
        npt.assert_allclose(A @ g2[:, j], g1[:, j], atol=1e-11)
    npt.assert_allclose(g2.sum(axis=0), 0.0, atol=1e-12)

    # the slow-discount regime carries no second-order payoff correction
    sol3 = stationary_solution(replace(cfg1, regime=Regime.ID3, delta_int=None, delta_dis=None))
    assert sol3.g2 is None
    npt.assert_array_equal(sol3.g1, g1)


def test_g2_frozen_two_level():
    cfg = two_level_cfg(q_down1=1.0)
    npt.assert_allclose(stationary_solution(cfg).g2, [[-0.25], [0.25]], atol=1e-14)


def test_g2_equal_scales_solvable_iff_balanced():
    rng = np.random.default_rng(91)
    ok = make_config(3, 3, rng, db=True, balanced_evo=True, regime=Regime.ID2)
    g2 = stationary_solution(ok).g2  # solvability sum vanishes exactly here
    assert np.all(np.isfinite(g2))
    bad = make_config(3, 3, rng, db=True, balanced_evo=False, regime=Regime.ID2)
    with pytest.raises(StationaryError, match="solvability"):
        stationary_solution(bad)


def test_x1_zero_under_balanced_tensors():
    rng = np.random.default_rng(14)
    cfg = make_config(4, 3, rng, db=True, balanced_evo=True)
    npt.assert_array_equal(stationary_solution(cfg).x1, np.zeros((4, 3)))


def test_x1_defining_equation_generic_tensors():
    rng = np.random.default_rng(15)
    cfg = make_config(4, 3, rng, db=True, balanced_evo=False)
    b = dominant_level(cfg).level
    x1 = stationary_solution(cfg).x1
    # supported on the dominant column only
    mask = np.ones(cfg.m, dtype=bool)
    mask[b] = False
    npt.assert_array_equal(x1[:, mask], 0.0)
    # independent transcription of the net stimulated flow at uniform mass
    n = cfg.n
    que = cfg.q_up_evo[:, b, b]
    qde = cfg.q_down_evo[:, b, b]
    r = np.zeros(n)
    for i in range(n):
        r[i] = (que[i - 1] if i > 0 else 0.0) - que[i]
        r[i] += (qde[i + 1] if i < n - 1 else 0.0) - qde[i]
        r[i] /= n * n
    assert abs(r.sum()) < 1e-15
    A = column_generator(b, cfg)
    npt.assert_allclose(A @ x1[:, b], -r, atol=1e-13)
    assert abs(x1[:, b].sum()) < 1e-13
    assert np.abs(x1[:, b]).max() > 0


def test_expansion_is_finite_at_zero_interaction_scale():
    # validate accepts an explicit delta_int of 0 when delta^2 (id1) or delta
    # (id2) lies within 1e-12 of it; the move table then holds no stimulated
    # moves, so their terms vanish instead of reading 0 / 0
    base = make_config(4, 3, np.random.default_rng(15), db=True, balanced_evo=False)
    for regime, delta in (("id1", 1e-7), ("id2", 1e-13)):
        cfg = replace(base, regime=regime, delta=delta, delta_int=0.0, delta_dis=None)
        assert validate(cfg) == []
        sol = stationary_solution(cfg)
        npt.assert_array_equal(sol.x1, 0.0)
        assert np.all(np.isfinite(sol.g))


def test_stationary_solution_assembly():
    rng = np.random.default_rng(26)
    cfg = make_config(4, 3, rng, db=True, balanced_evo=False, delta=0.05)
    sol = stationary_solution(cfg)
    assert sol.b == dominant_level(cfg).level
    assert sol.b_1based == sol.b + 1
    # uniform mass on the dominant column, exactly
    want = np.zeros((4, 3))
    want[:, sol.b] = 0.25
    npt.assert_array_equal(sol.x0.x, want)
    npt.assert_allclose(sol.g, sol.g0 / cfg.delta_dis + sol.g1 + cfg.delta_dis * sol.g2)
    npt.assert_allclose(sol.x_corrected, sol.x0.x + cfg.delta_int * sol.x1)
    npt.assert_allclose(sol.meta["column_sums"], effective_rewards(cfg).sum(axis=0))


def test_stationary_solution_margin_nonpositive_at_small_delta():
    rng = np.random.default_rng(37)
    cfg = make_config(3, 3, rng, db=True, gap=1.0, delta=0.004, fee_switch=0.5)
    sol = stationary_solution(cfg)
    assert sol.margin <= 0.0
    assert sol.margin_leading <= -1.0 + 1e-12


def test_stationary_solution_requires_detailed_balance():
    rng = np.random.default_rng(48)
    cfg = make_config(3, 2, rng, db=False)
    with pytest.raises(StationaryError, match="detailed-balanced"):
        stationary_solution(cfg)


def test_stationary_solution_rejects_tied_columns():
    cfg = GameConfig(
        n=2, m=2,
        q_up=[[1.0, 1.0], [0.0, 0.0]], q_down=[[0.0, 0.0], [1.0, 1.0]],
        q_up_evo=np.zeros((2, 2, 2)), q_down_evo=np.zeros((2, 2, 2)),
        w=np.ones((2, 2)), fee_B=1.0 - np.eye(2), fee_H=np.zeros(2),
        detailed_balance=True,
    )
    with pytest.raises(StationaryError, match="tied"):
        stationary_solution(cfg)


def test_stationary_point_is_exact_fixed_point_with_balanced_tensors():
    rng = np.random.default_rng(59)
    cfg = make_config(4, 3, rng, db=True, balanced_evo=True, delta=0.05)
    sol = stationary_solution(cfg)
    assert stationary_residual(sol.x0.x, cfg) < 1e-15
    npt.assert_array_equal(sol.x_corrected, sol.x0.x)  # x1 is exactly zero


def test_stationary_solution_solves_each_column_once_per_term(monkeypatch):
    # x1 takes one solve on the dominant column, g1 and g2 one per column each
    calls = []
    solve = hbmfg.stationary.solve_on_complement

    def counting(chain, y):
        calls.append(chain.j)
        return solve(chain, y)

    monkeypatch.setattr(hbmfg.stationary, "solve_on_complement", counting)
    rng = np.random.default_rng(63)
    for regime, m, per_column in ((Regime.ID1, 3, 2), (Regime.ID2, 3, 2), (Regime.ID3, 2, 1)):
        cfg = make_config(4, m, rng, db=True, balanced_evo=True, regime=regime)
        calls.clear()
        sol = stationary_solution(cfg)
        assert len(calls) == per_column * m + 1, regime
        assert calls[0] == sol.b
