"""Stationary occupations and payoffs by small-parameter expansion.

With switching off, each behaviour column evolves as an independent
birth-death chain on the hierarchy levels.  Under detailed balance the
chain's stationary occupation is uniform, and the discounted payoff admits
an expansion in the discount scale: a per-column constant at order 1/delta_dis,
a mean-zero first correction, and (in the fast-discount regimes) a second
correction that feels the stimulated interactions.  The occupation picks up
its own first correction, proportional to delta_int, on the dominant column.

stationary_solution computes the whole expansion in one pass; the fields of
the StationarySolution it returns are the expansion terms.  It checks each
precondition once, in this order, and raises StationaryError naming the one
that fails:

1. detailed balance of the pressure rates (model.balance_gap);
2. a nonzero net effective reward sum in every column, at the tolerance of
   model.dominant_level (the message names the dead columns, 1-based);
3. a unique dominant column (a tie is refused);
4. in ID2, the second-order data sums to zero in every column (at 1e-9).

The column solves (solve_on_complement) raise DegenerateChainError for a
vanishing link rate and StationaryError for the sink variant's chain.
Everything works column by column on small dense chains; solves are
closed-form recursions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import (
    BALANCE_TOL,
    GameConfig,
    Occupation,
    Regime,
    balance_gap,
    dominant_level,
    effective_rewards,
)

__all__ = [
    "StationaryError",
    "DegenerateChainError",
    "LevelChain",
    "StationarySolution",
    "build_level_chain",
    "kernel_product_forms",
    "solve_on_complement",
    "stationary_solution",
]

MEAN_TOL = 1e-12   # membership in the mean-zero complement, relative
SOLVE_TOL = 1e-9   # second-order solvability (column sum of the rhs)


class StationaryError(RuntimeError):
    pass


class DegenerateChainError(StationaryError):
    """A chain rate needed by a closed form is zero (or negative)."""


@dataclass(frozen=True)
class LevelChain:
    """One behaviour column's pressure chain on the levels.

    A is the n x n generator of the column's pressure moves in cfg.moves
    (sink drops included), acting on column occupations: columns sum to
    zero, and A[i+1, i] is the up rate on the link above level i.
    detailed_balance means the up rates equal the matching down rates (A
    symmetric, uniform kernel); only then do the complement solves apply.
    """

    j: int
    A: np.ndarray
    detailed_balance: bool

    @property
    def n(self) -> int:
        return self.A.shape[0]


def build_level_chain(j: int, cfg: GameConfig) -> LevelChain:
    """Column j's chain (0-based j): cfg.moves' generator of its pressure rates."""
    if not (0 <= j < cfg.m):
        raise ValueError(f"behaviour column index {j} out of range for m={cfg.m}")
    mv = cfg.moves
    return LevelChain(
        j=j,
        A=mv.generator(mv.rate[:, :, j]),
        detailed_balance=balance_gap(cfg, j)[0] <= BALANCE_TOL,
    )


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


def kernel_product_forms(chain: LevelChain) -> tuple[np.ndarray, np.ndarray]:
    """The chain's stationary occupation built two independent ways.

    First form chains the link ratios upward from the bottom level, second
    chains the inverse ratios downward from the top; both are normalized to
    unit mass.  They agree up to rounding and serve as a cross-check.
    """
    up, down = _link_rates(chain)
    if up.size == 0:
        one = np.ones(1)
        return one.copy(), one.copy()
    _require_positive_links(chain, up, down)
    v_bottom = np.concatenate(([1.0], np.cumprod(up / down)))
    v_bottom /= v_bottom.sum()
    v_top = np.concatenate(([1.0], np.cumprod((down / up)[::-1])))[::-1]
    v_top /= v_top.sum()
    return v_bottom, v_top


def solve_on_complement(chain: LevelChain, y) -> np.ndarray:
    """Unique mean-zero z with A z = -y, for mean-zero y on a balanced chain.

    Closed-form recursion down the chain: cumulative loads on the links,
    summed back with the weights that make the result mean-zero.
    """
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


@dataclass(frozen=True)
class StationarySolution:
    """The stationary expansion at a config's scales; its fields are the terms.

    x0 is uniform mass on the dominant column b and x1 the delta_int-order
    occupation correction, supported on column b.  g0 holds each column's
    mean effective reward (constant down the column), g1 the mean-zero first
    payoff correction, and g2 the second one in the fast-discount regimes
    (None in ID3).  g = g0/delta_dis + g1 (+ delta_dis*g2).  margin is the
    best switching gain at the assembled point (<= 0 certifies no profitable
    switch); margin_leading compares column reward sums directly.
    """

    x0: Occupation
    x1: np.ndarray
    g0: np.ndarray
    g1: np.ndarray
    g2: Optional[np.ndarray]
    g: np.ndarray
    b: int
    regime: Regime
    delta: float
    delta_int: float
    delta_dis: float
    margin: float
    margin_leading: float
    meta: dict = field(default_factory=dict, repr=False)

    @property
    def b_1based(self) -> int:
        return self.b + 1

    @property
    def x_corrected(self) -> np.ndarray:
        return self.x0.x + self.delta_int * self.x1


def stationary_solution(cfg: GameConfig) -> StationarySolution:
    """Build the full stationary expansion, certifying its preconditions.

    The preconditions are checked once each, in the order the module
    docstring lists.  Each column's chain is built once, and each term takes
    one solve per column it touches: m + 1 solves in ID3, 2m + 1 otherwise.

    x1: the uniform occupation feeds cfg.moves' stimulated moves on column b
    a net flow r per level, at unit interaction scale (evo over n^2 *
    delta_int); x1 is the mean-zero chain solution balancing it on column b.
    g1 solves each column's chain with the centered effective rewards as
    data.  g2's data is g1 itself in ID1; in ID2 it is g1 minus the expected
    payoff change, on g1 and net of fines, of cfg.moves' stimulated moves
    with partners uniform on column b, at unit interaction scale (evo over
    n * delta_int).
    """
    from .hjb import consistency_margin  # local import keeps module load light

    gap = balance_gap(cfg)[0]
    if not gap <= BALANCE_TOL:
        raise StationaryError(
            f"pressure rates are not detailed-balanced (worst relative link gap {gap:.3e})"
        )
    rep = dominant_level(cfg)
    sums = rep.column_sums
    if not rep.nonzero_sums:
        cols = ", ".join(str(j + 1) for j in np.flatnonzero(np.abs(sums) <= rep.tol))
        raise StationaryError(
            f"net effective reward sums to zero in behaviour column(s) {cols}; "
            "the payoff expansion is degenerate there"
        )
    if not rep.unique:
        raise StationaryError(
            f"dominant behaviour column is tied (column sums {sums.tolist()})"
        )
    b = rep.level
    n = cfg.n
    chains = [build_level_chain(j, cfg) for j in range(cfg.m)]

    def solve_columns(y: np.ndarray) -> np.ndarray:
        return np.column_stack([solve_on_complement(c, y[:, c.j]) for c in chains])

    mv = cfg.moves
    unit = cfg.delta_int or 1.0   # evo / unit is at unit interaction scale (0 if delta_int is)
    r = mv.net @ mv.evo[:, :, b, b].ravel() / (n * n * unit)
    x1 = np.zeros((n, cfg.m))
    x1[:, b] = solve_on_complement(chains[b], r - r.mean())

    g0 = np.tile(sums / n, (n, 1))
    g1 = solve_columns(effective_rewards(cfg) - g0)
    g2 = None
    if cfg.regime is Regime.ID1:
        g2 = solve_columns(-g1)
    elif cfg.regime is Regime.ID2:
        partners = mv.evo[..., b] / (n * unit)
        rhs = g1 - (partners * mv.payoff_change(g1)).sum(axis=0)
        for j in range(cfg.m):
            scale = max(1.0, float(np.max(np.abs(rhs[:, j]))))
            s = float(rhs[:, j].sum())
            if abs(s) > SOLVE_TOL * scale:
                raise StationaryError(
                    f"second-order solvability fails in column {j + 1} "
                    f"(data sums to {s:.3e}); no correction exists for this config"
                )
        g2 = solve_columns(-(rhs - rhs.mean(axis=0)))
    g = g0 / cfg.delta_dis + g1
    if g2 is not None:
        g = g + cfg.delta_dis * g2

    x0m = np.zeros((n, cfg.m))
    x0m[:, b] = 1.0 / n
    if cfg.m > 1:
        others = np.delete(sums, b)
        margin_leading = float(np.max(others - sums[b]))
    else:
        margin_leading = float("-inf")
    margin = consistency_margin(g, x0m, cfg)

    return StationarySolution(
        x0=Occupation(x0m),
        x1=x1,
        g0=g0,
        g1=g1,
        g2=g2,
        g=g,
        b=b,
        regime=cfg.regime,
        delta=cfg.delta,
        delta_int=cfg.delta_int,
        delta_dis=cfg.delta_dis,
        margin=margin,
        margin_leading=margin_leading,
        meta={"column_sums": sums.copy()},
    )
