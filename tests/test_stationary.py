from __future__ import annotations

from dataclasses import replace

import hbmfg.stationary
import numpy as np
import numpy.testing as npt
import pytest

from hbmfg import (
    DegenerateChainError,
    GameConfig,
    LevelChain,
    Regime,
    StationaryError,
    build_level_chain,
    dominant_level,
    effective_rewards,
    kinetic_rhs,
    kernel_product_forms,
    solve_on_complement,
    stationary_solution,
    validate,
)
from hbmfg.stationary import MEAN_TOL
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


def _raises_link_error(chain, y):
    # a chain is built without raising and keeps its link fault; the kernel,
    # and a solve on the chain flagged balanced, raise it
    cls, message = chain.link_error
    for call in (lambda: kernel_product_forms(chain),
                 lambda: solve_on_complement(LevelChain(chain.j, chain.A, True), y)):
        with pytest.raises(cls) as err:
            call()
        assert type(err.value) is cls and str(err.value) == message
    return message


def test_degenerate_link_raises_with_level():
    chain = build_level_chain(0, two_level_cfg(q_up0=0.0))
    assert _raises_link_error(chain, [1.0, -1.0]) == (
        "column 1: up rate vanishes on the link at level 1; the chain does not connect all levels")
    A = np.array([[-1.0, 0.0, 0.0], [1.0, -2.0, 1.0], [0.0, 2.0, -1.0]])   # the first down link
    assert "down rate vanishes on the link at level 2" in _raises_link_error(
        LevelChain(2, A, False), [1.0, 0.0, -1.0])


def test_sink_chain_is_refused_by_name():
    # the chain connects all levels through its drops to level 1; the closed
    # forms read only one-level links, so they must refuse it, not call it cut
    cfg = make_config(3, 2, np.random.default_rng(1), with_evo=False, sink=True)
    chain = build_level_chain(0, cfg)
    assert chain.link_error[0] is StationaryError
    assert "sink variant" in _raises_link_error(chain, [1.0, 0.0, -1.0])


def test_nan_link_rate_passes_the_link_check():
    # rates <= 0 is false for nan: the chain has no link fault, and the closed
    # forms return nan where the reference does
    A = np.array([[-np.nan, 1.0], [np.nan, -1.0]])
    chain = LevelChain(0, A, True)
    assert chain.link_error is None
    assert np.isnan(kernel_product_forms(chain)[0]).all()
    y = np.array([1.0, -1.0])
    npt.assert_array_equal(solve_on_complement(chain, y), _solve_column(chain, y))


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
    sol3 = stationary_solution(replace(cfg1, regime=Regime.ID3))
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
    # in id1 a delta below about 1e-162 underflows delta_int = delta^2 to 0,
    # which validate accepts; the stimulated moves enter x1 at unit
    # interaction scale, so it is the x1 of every other delta, not zero
    base = make_config(4, 3, np.random.default_rng(15), db=True, balanced_evo=False)
    cfg = replace(base, regime="id1", delta=1e-170)
    assert cfg.delta_int == 0.0 and validate(cfg) == []
    sol = stationary_solution(cfg)
    assert np.abs(sol.x1).max() > 0
    assert sol.x1.tobytes() == stationary_solution(base).x1.tobytes()
    assert np.all(np.isfinite(sol.g))


@pytest.mark.parametrize("regime", list(Regime))
def test_expansion_terms_are_equal_in_bits_across_delta(regime):
    # the terms are the small-delta series' coefficients, so no delta reaches
    # their bits, also where delta_int (id1) or delta_dis (id3) underflows to
    # 0 at 1e-170; id2's second order is solvable only with balanced tensors,
    # whose x1 is 0
    cfg = make_config(4, 3, np.random.default_rng(5), db=True, regime=regime,
                      balanced_evo=regime is Regime.ID2)
    terms = []
    for delta in (0.05, 1e-3, 1e-100, 1e-170):
        with np.errstate(divide="ignore", invalid="ignore"):   # g0 / delta_dis in id3
            sol = stationary_solution(replace(cfg, delta=delta))
        terms.append([t.tobytes() for t in (sol.x1, sol.g0, sol.g1, sol.g2) if t is not None])
    assert all(t == terms[0] for t in terms)
    assert len(terms[0]) == (3 if regime is Regime.ID3 else 4)
    assert bool(np.abs(sol.x1).max() > 0) == (regime is not Regime.ID2)


@pytest.mark.parametrize("regime", list(Regime))
def test_expansion_reads_no_rate_on_a_dead_row(regime):
    # a stimulated drop out of level 1, which validate refuses and the move
    # table drops, reaches no term, not even through a fine on level 1
    cfg = make_config(4, 3, np.random.default_rng(6), db=True, regime=regime)
    cfg = replace(cfg, fee_H=[0.5, 0.0, 0.0, 0.0])
    q_down_evo = cfg.q_down_evo.copy()
    q_down_evo[0] = 0.7
    dead = replace(cfg, q_down_evo=q_down_evo)
    assert validate(dead) == ["q_down_evo row 1 nonzero: no such move out of level 1"]
    want, got = stationary_solution(cfg), stationary_solution(dead)
    for name in ("x1", "g1", "g2"):
        a, b = getattr(want, name), getattr(got, name)
        assert a is b is None or a.tobytes() == b.tobytes(), name


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
    assert np.abs(kinetic_rhs(sol.x0.x, None, cfg)).max() < 1e-15
    npt.assert_array_equal(sol.x_corrected, sol.x0.x)  # x1 is exactly zero


def test_stationary_solution_solves_each_column_once_per_term(monkeypatch):
    # x1 takes one solve on the dominant column first, then g1 and g2 one each
    # on every column at once
    calls = []
    solve = hbmfg.stationary.solve_on_complement

    def counting(chain, y):
        calls.append(chain.j if isinstance(chain, LevelChain) else [c.j for c in chain])
        return solve(chain, y)

    monkeypatch.setattr(hbmfg.stationary, "solve_on_complement", counting)
    rng = np.random.default_rng(63)
    for regime, m, terms in ((Regime.ID1, 3, 3), (Regime.ID2, 3, 3), (Regime.ID3, 2, 2)):
        cfg = make_config(4, m, rng, db=True, balanced_evo=True, regime=regime)
        calls.clear()
        sol = stationary_solution(cfg)
        assert calls == [sol.b] + [list(range(m))] * (terms - 1), regime


# A per-column complement solve with its own link checks, kept verbatim as the
# reference for solve_on_complement's bits and messages.

def _link_rates(chain: LevelChain) -> tuple[np.ndarray, np.ndarray]:
    up, down = chain.A.diagonal(-1), chain.A.diagonal(1)
    if np.count_nonzero(chain.A) > sum(map(np.count_nonzero, (chain.A.diagonal(), up, down))):
        raise StationaryError(f"column {chain.j + 1}: the sink variant's chain skips levels; "
                              "its closed forms need one-level links")
    return up, down


def _require_positive_links(chain: LevelChain, up: np.ndarray, down: np.ndarray):
    for name, rates in (("up", up), ("down", down)):
        bad = np.flatnonzero(rates <= 0.0)
        if bad.size:
            lvl = bad[0] + (1 if name == "up" else 2)  # 1-based source level
            raise DegenerateChainError(
                f"column {chain.j + 1}: {name} rate vanishes on the link at level "
                f"{lvl}; the chain does not connect all levels"
            )


def _solve_column(chain: LevelChain, y) -> np.ndarray:
    """solve_on_complement on one chain."""
    ya = np.asarray(y, dtype=float).reshape(-1)
    if ya.size != chain.n:
        raise ValueError(f"right-hand side has length {ya.size}, chain has {chain.n}")
    if not chain.detailed_balance:
        raise StationaryError(
            f"column {chain.j + 1} chain is not detailed-balanced; "
            "the complement solve requires matching up/down link rates"
        )
    scale = max(1.0, float(np.max(np.abs(ya), initial=0.0)))
    if abs(float(ya.sum())) > MEAN_TOL * scale:
        raise StationaryError(
            f"right-hand side is not mean-zero (sum {ya.sum():.3e}); "
            "it leaves the solvable complement"
        )
    if chain.n == 1:
        return np.zeros(1)
    up, down = _link_rates(chain)
    _require_positive_links(chain, up, down)
    n = chain.n
    loads = np.cumsum(ya)[:-1] / up  # mass below each link over its rate
    z = np.empty(n)
    z[0] = float(np.dot((n - np.arange(1, n)) / n, loads))
    z[1:] = z[0] - np.cumsum(loads)
    return z


def _column_by_column(cfg):
    """The expansion with each column's chain built and solved on its own, by
    the reference _solve_column: the reference for solve_on_complement."""
    from hbmfg.hjb import consistency_margin
    from hbmfg.model import BALANCE_TOL, balance_gap

    gap = balance_gap(cfg)[0]
    if not gap <= BALANCE_TOL:
        raise StationaryError(
            f"pressure rates are not detailed-balanced (worst relative link gap {gap:.3e})")
    rep = dominant_level(cfg)
    sums = rep.column_sums
    if not rep.nonzero_sums:
        cols = ", ".join(str(j + 1) for j in np.flatnonzero(np.abs(sums) <= rep.tol))
        raise StationaryError(f"net effective reward sums to zero in behaviour column(s) "
                              f"{cols}; the payoff expansion is degenerate there")
    if not rep.unique:
        raise StationaryError(f"dominant behaviour column is tied (column sums {sums.tolist()})")
    b, n, mv = rep.level, cfg.n, cfg.moves
    up, down = cfg.q_up[:-1], cfg.q_down[1:]

    def column_gap(j):   # column j's worst link gap, found on its own
        if up.size == 0:
            return 0.0
        scale = max(1.0, float(np.max(np.abs(up))), float(np.max(np.abs(down))))
        diff = np.abs(up - down)
        return float(diff[int(np.argmax(diff[:, j])), j]) / scale

    chains = [LevelChain(j, mv.generator(mv.rate[:, :, j]), column_gap(j) <= BALANCE_TOL)
              for j in range(cfg.m)]

    def columns(y):
        return np.column_stack([_solve_column(c, y[:, c.j]) for c in chains])

    live = (mv.dest != np.arange(n))[:, :, None, None]
    q = np.where(live, np.stack([e for _, (_, (_, e)) in cfg.move_families()]), 0.0)
    r = mv.net @ q[:, :, b, b].ravel() / (n * n)
    x1 = np.zeros((n, cfg.m))
    x1[:, b] = _solve_column(chains[b], r - r.mean())
    g0 = np.tile(sums / n, (n, 1))
    g1 = columns(effective_rewards(cfg) - g0)
    g2 = None
    if cfg.regime is Regime.ID1:
        g2 = columns(-g1)
    elif cfg.regime is Regime.ID2:
        rhs = g1 - (q[..., b] / n * mv.payoff_change(g1)).sum(axis=0)
        for j in range(cfg.m):
            scale = max(1.0, float(np.max(np.abs(rhs[:, j]))))
            s = float(rhs[:, j].sum())
            if abs(s) > 1e-9 * scale:
                raise StationaryError(
                    f"second-order solvability fails in column {j + 1} "
                    f"(data sums to {s:.3e}); no correction exists for this config")
        g2 = columns(-(rhs - rhs.mean(axis=0)))
    g = g0 / cfg.delta_dis + g1
    if g2 is not None:
        g = g + cfg.delta_dis * g2
    x0m = np.zeros((n, cfg.m))
    x0m[:, b] = 1.0 / n
    lead = float(np.max(np.delete(sums, b) - sums[b])) if cfg.m > 1 else float("-inf")
    return dict(x0=x0m, x1=x1, x_corrected=x0m + cfg.delta_int * x1, g0=g0, g1=g1, g2=g2,
                g=g, b=b, margin=consistency_margin(g, x0m, cfg), margin_leading=lead)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except StationaryError as e:
        return type(e), str(e)


@pytest.mark.parametrize("n", [1, 2, 3, 9, 10, 12])
def test_stationary_solution_equals_column_by_column_solves(n):
    # the stacked solves give every field in the bits, and every failure the
    # error and message, of the reference solve per column and term;
    # n >= 9 sums each column pairwise
    rng = np.random.default_rng(300 + n)
    seen = set()
    for m in (1, 2, 3, 5):
        for regime in Regime:
            for kind in ("balanced", "unbalanced", "sink", "nondb", "dead link"):
                cfg = make_config(n, m, rng, regime=regime, db=kind != "nondb",
                                  balanced_evo=kind != "unbalanced", sink=kind == "sink",
                                  fine=0.3, b=int(rng.integers(m)))
                if kind == "dead link" and n > 1:   # a vanishing link on the last column
                    q_up, q_down = cfg.q_up.copy(), cfg.q_down.copy()
                    q_up[n - 2, m - 1] = q_down[n - 1, m - 1] = 0.0
                    cfg = replace(cfg, q_up=q_up, q_down=q_down)
                want = _outcome(_column_by_column, cfg)
                got = _outcome(stationary_solution, cfg)
                if isinstance(want, tuple):
                    assert got == want, (m, regime, kind)
                    seen.add(want)
                    continue
                for name, value in want.items():
                    mine = got.x0.x if name == "x0" else getattr(got, name)
                    if isinstance(value, np.ndarray):   # C order too: matmul rounds by layout
                        assert (mine.dtype, mine.shape, mine.tobytes(), mine.flags.c_contiguous) \
                            == (value.dtype, value.shape, value.tobytes(), True), \
                            (m, regime, kind, name)
                    else:
                        assert repr(mine) == repr(value), (m, regime, kind, name)
    if n > 1:   # the failing kinds reached their own errors
        assert {t for t, _ in seen} == {StationaryError, DegenerateChainError}


def test_stacked_complement_solve_matches_a_call_per_column():
    # on random stacks, some columns failing one check or another: the result
    # in bits, or the first failing column's error and message, of the
    # reference solve per column; and so for each column's single-chain call
    rng = np.random.default_rng(77)
    kinds, errors = ("detailed-balanced", "mean-zero", "sink variant", "vanishes"), set()
    for trial in range(400):
        n, m = int(rng.integers(1, 14)), int(rng.integers(1, 6))
        cfg = make_config(n, m, rng, db=bool(rng.random() < 0.85),
                          sink=bool(rng.random() < 0.1))
        if n > 1 and rng.random() < 0.15:
            q_up, q_down = cfg.q_up.copy(), cfg.q_down.copy()
            j, i = int(rng.integers(m)), int(rng.integers(n - 1))
            q_up[i, j] = q_down[i + 1, j] = 0.0
            cfg = replace(cfg, q_up=q_up, q_down=q_down)
        chains = [build_level_chain(j, cfg) for j in range(m)]
        if rng.random() < 0.3:   # flagged balanced, so a sink chain meets its own check
            chains = [LevelChain(c.j, c.A, True) for c in chains]
        y = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-3, 4, size=m)
        y -= y.mean(axis=0)
        if rng.random() < 0.2:
            y[:, int(rng.integers(m))] += 1e-6
        for c in chains:
            want, got = (_outcome(fn, c, y[:, c.j]) for fn in (_solve_column, solve_on_complement))
            if isinstance(want, tuple):
                assert got == want, trial
            else:
                assert (got.shape, got.tobytes(), got.flags.c_contiguous) \
                    == (want.shape, want.tobytes(), True), trial
        try:
            want = np.column_stack([_solve_column(c, y[:, c.j]) for c in chains])
        except StationaryError as e:
            errors.add(next(kind for kind in kinds if kind in str(e)))
            assert _outcome(solve_on_complement, chains, y) == (type(e), str(e)), trial
            continue
        got = solve_on_complement(chains, y)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), trial
    assert errors == set(kinds)   # each check is the first to fail somewhere
    for stack, y in ((chains, np.zeros((n + 1, m))), (chains, np.zeros((n, m + 1))), ([], [])):
        with pytest.raises(ValueError, match="one column per chain"):
            solve_on_complement(stack, y)
    for y in (np.zeros(n + 1), np.zeros((n, 2))):   # one chain keeps its own message
        with pytest.raises(ValueError, match=f"right-hand side has length {y.size}, chain has {n}$"):
            solve_on_complement(chains[0], y)
