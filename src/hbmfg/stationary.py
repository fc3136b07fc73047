"""Stationary occupations and payoffs by small-parameter expansion.

With switching off, each behaviour column evolves as an independent
birth-death chain on the hierarchy levels.  Under detailed balance the
chain's stationary occupation is uniform, and the discounted payoff admits
an expansion in the discount scale: a per-column constant at order 1/delta_dis,
a mean-zero first correction, and (in the fast-discount regimes) a second
correction that feels the stimulated interactions.  The occupation picks up
its own first correction, proportional to delta_int, on the dominant column.

Everything here works column by column on small dense chains; solves are
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
    "kernel",
    "kernel_product_forms",
    "solve_on_complement",
    "g0_term",
    "g1_term",
    "g2_term",
    "x1_correction",
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
    """One behaviour column's birth-death generator on the levels.

    A is the n x n chain matrix acting on column occupations (columns sum to
    zero; under detailed balance it is symmetric with uniform kernel).  q
    holds the n-1 up rates on the links; detailed balance means these equal
    the matching down rates, and only then do the complement solves apply.
    """

    j: int
    A: np.ndarray
    q: np.ndarray
    detailed_balance: bool
    up_evo: np.ndarray = field(repr=False)
    down_evo: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def interaction_generator(self, x) -> np.ndarray:
        """Chain matrix of the stimulated moves at occupation x.

        Same tridiagonal layout as A with the per-capita stimulated rates
        sum_k evo[i,k]*x[i,k] in place of the pressure rates.  Linear in x,
        columns sum to zero.
        """
        xa = np.asarray(x, dtype=float)
        s_up = np.einsum("ik,ik->i", self.up_evo, xa)
        s_dn = np.einsum("ik,ik->i", self.down_evo, xa)
        return _tridiag_generator(s_up[:-1], s_dn[1:])


def _tridiag_generator(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    # up[i]: rate of i -> i+1 (length n-1); down[i]: rate of i+1 -> i
    n = up.size + 1
    A = np.zeros((n, n))
    A[np.arange(n - 1), np.arange(n - 1)] -= up
    A[np.arange(1, n), np.arange(1, n)] -= down
    A[np.arange(1, n), np.arange(n - 1)] += up
    A[np.arange(n - 1), np.arange(1, n)] += down
    return A


def build_level_chain(j: int, cfg: GameConfig) -> LevelChain:
    """Extract column j's chain from the config (0-based j)."""
    if not (0 <= j < cfg.m):
        raise ValueError(f"behaviour column index {j} out of range for m={cfg.m}")
    up = cfg.q_up[:-1, j].copy()
    return LevelChain(
        j=j,
        A=_tridiag_generator(up, cfg.q_down[1:, j]),
        q=up,
        detailed_balance=balance_gap(cfg, j)[0] <= BALANCE_TOL,
        up_evo=np.asarray(cfg.q_up_evo[:, j, :], dtype=float),
        down_evo=np.asarray(cfg.q_down_evo[:, j, :], dtype=float),
    )


def _link_rates(chain: LevelChain) -> tuple[np.ndarray, np.ndarray]:
    up = np.diag(chain.A, -1)
    down = np.diag(chain.A, 1)
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


def kernel(chain: LevelChain, mass: float = 1.0) -> np.ndarray:
    """Stationary occupation of the chain carrying the given total mass.

    Under detailed balance this is exactly uniform mass/n.
    """
    v_bottom, v_top = kernel_product_forms(chain)
    gap = float(np.max(np.abs(v_bottom - v_top)))
    if gap > 1e-12:
        raise StationaryError(
            f"column {chain.j + 1}: kernel product forms disagree by {gap:.3e}"
        )
    return mass * v_bottom


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
    if np.any(chain.q <= 0.0):
        _require_positive_links(chain, *_link_rates(chain))
    n = chain.n
    loads = np.cumsum(ya)[:-1] / chain.q  # mass below each link over its rate
    z = np.empty(n)
    z[0] = float(np.dot((n - np.arange(1, n)) / n, loads))
    z[1:] = z[0] - np.cumsum(loads)
    return z


def g0_term(cfg: GameConfig) -> np.ndarray:
    """Leading payoff coefficient: each column's mean effective reward.

    Constant down each column; the payoff itself carries this term divided
    by delta_dis.  Errors out when some column's net reward sums to zero,
    which leaves the first correction undefined.
    """
    wt = effective_rewards(cfg)
    sums = wt.sum(axis=0)
    scale = max(1.0, float(np.max(np.abs(wt))) * cfg.n)
    dead = np.flatnonzero(np.abs(sums) <= 1e-12 * scale)
    if dead.size:
        cols = ", ".join(str(j + 1) for j in dead)
        raise StationaryError(
            f"net effective reward sums to zero in behaviour column(s) {cols}; "
            "the payoff expansion is degenerate there"
        )
    return np.tile(sums / cfg.n, (cfg.n, 1))


def g1_term(cfg: GameConfig) -> np.ndarray:
    """First payoff correction, mean-zero down every column.

    Solves the chain equation with the centered effective rewards as data.
    """
    y = effective_rewards(cfg) - g0_term(cfg)
    out = np.zeros((cfg.n, cfg.m))
    for j in range(cfg.m):
        out[:, j] = solve_on_complement(build_level_chain(j, cfg), y[:, j])
    return out


def g2_term(cfg: GameConfig, regime=None) -> np.ndarray:
    """Second payoff correction for the fast-discount regimes.

    In the regime with quadratic interaction scale the data is just the first
    correction; with equal scales the stimulated chain and downgrade fines
    enter and a per-column solvability sum must vanish (checked at 1e-9).
    """
    regime = Regime(regime) if regime is not None else cfg.regime
    if regime is Regime.ID3:
        raise StationaryError(
            "slow-discount regime carries no second-order payoff correction"
        )
    g1 = g1_term(cfg)
    out = np.zeros((cfg.n, cfg.m))
    x0m = None
    b = None
    if regime is Regime.ID2:
        rep = dominant_level(cfg)
        if not rep.unique:
            raise StationaryError(
                "dominant behaviour column is tied; second-order correction "
                "needs a unique dominant column"
            )
        b = rep.level
        x0m = np.zeros((cfg.n, cfg.m))
        x0m[:, b] = 1.0 / cfg.n
    for j in range(cfg.m):
        chain = build_level_chain(j, cfg)
        if regime is Regime.ID1:
            y = -g1[:, j]
        else:
            E0 = chain.interaction_generator(x0m)
            rhs = g1[:, j] - E0.T @ g1[:, j]
            rhs = rhs + cfg.fee_H * cfg.q_down_evo[:, j, b] / cfg.n
            scale = max(1.0, float(np.max(np.abs(rhs))))
            s = float(rhs.sum())
            if abs(s) > SOLVE_TOL * scale:
                raise StationaryError(
                    f"second-order solvability fails in column {j + 1} "
                    f"(data sums to {s:.3e}); no correction exists for this config"
                )
            rhs = rhs - rhs.mean()
            y = -rhs
        out[:, j] = solve_on_complement(chain, y)
    return out


def x1_correction(cfg: GameConfig) -> np.ndarray:
    """First occupation correction, supported on the dominant column.

    The uniform occupation feeds the stimulated moves a net flow r per level;
    the correction is the mean-zero chain solution balancing it.  r telescopes
    to zero thanks to the zero boundary rows of the evolution tensors.
    """
    rep = dominant_level(cfg)
    if not rep.unique:
        raise StationaryError(
            "dominant behaviour column is tied; occupation correction undefined"
        )
    b = rep.level
    n = cfg.n
    que = np.asarray(cfg.q_up_evo[:, b, b], dtype=float)
    qde = np.asarray(cfg.q_down_evo[:, b, b], dtype=float)
    prev_up = np.concatenate(([0.0], que[:-1]))
    next_dn = np.concatenate((qde[1:], [0.0]))
    r = (prev_up - que + next_dn - qde) / float(n * n)
    scale = max(1.0, float(np.max(np.abs(r), initial=0.0)))
    if abs(float(r.sum())) > 1e-12 * scale:
        raise StationaryError(
            "stimulated net flow fails to telescope to zero; "
            "check the boundary rows of the evolution tensors"
        )
    r = r - r.mean()
    out = np.zeros((n, cfg.m))
    out[:, b] = solve_on_complement(build_level_chain(b, cfg), r)
    return out


@dataclass(frozen=True)
class StationarySolution:
    """Assembled stationary expansion at a config's scales.

    x0 is uniform mass on the dominant column b; x1 the delta_int-order
    correction.  g collects g0/delta_dis + g1 (+ delta_dis*g2 where the
    regime defines it).  margin is the best switching gain at the assembled
    point (<= 0 certifies no profitable switch); margin_leading compares
    column reward sums directly.
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

    Requires detailed-balanced, connecting pressure rates and a unique
    dominant behaviour column with nonzero net reward sums; failures raise
    StationaryError naming the condition.
    """
    from .hjb import consistency_margin  # local import keeps module load light

    gap = balance_gap(cfg)[0]
    if not gap <= BALANCE_TOL:
        raise StationaryError(
            f"pressure rates are not detailed-balanced (worst relative link gap {gap:.3e})"
        )
    rep = dominant_level(cfg)
    if not rep.nonzero_sums:
        raise StationaryError(
            "some behaviour column has zero net effective reward sum; "
            "the expansion is degenerate"
        )
    if not rep.unique:
        sums = rep.column_sums
        raise StationaryError(
            f"dominant behaviour column is tied (column sums {sums.tolist()})"
        )
    b = rep.level

    x0m = np.zeros((cfg.n, cfg.m))
    x0m[:, b] = 1.0 / cfg.n
    x1 = x1_correction(cfg)
    g0 = g0_term(cfg)
    g1 = g1_term(cfg)
    g2 = None
    if cfg.regime in (Regime.ID1, Regime.ID2):
        g2 = g2_term(cfg)
    g = g0 / cfg.delta_dis + g1
    if g2 is not None:
        g = g + cfg.delta_dis * g2

    if cfg.m > 1:
        others = np.delete(rep.column_sums, b)
        margin_leading = float(np.max(others - rep.column_sums[b]))
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
        meta={"column_sums": rep.column_sums.copy()},
    )
