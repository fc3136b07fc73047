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

1. detailed balance of the pressure rates (model.column_balance_gaps);
2. a nonzero net effective reward sum in every column, at the tolerance of
   model.dominant_level (the message names the dead columns, 1-based);
3. a unique dominant column (a tie is refused);
4. in ID2, the second-order data sums to zero in every column (at 1e-9).

The chains are small and dense, and the solves closed-form recursions: each
term takes one solve_on_complement call, x1 on the dominant column and g1
and g2 on every column at once, so the expansion takes 3 solves (2 in ID3).
A chain finds its link fault once, when it is built: a nonzero cell off the
one-level links (the sink's drop; StationaryError), else the first up, else
the first down link whose rate is <= 0 (DegenerateChainError; nan passes).
A solve takes each column in turn, checks that its chain is balanced, its
data mean-zero and its links fault-free, and raises the first failure.
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
    column_balance_gaps,
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
    Building never raises: link_error keeps the chain's link fault, the first
    the module docstring lists, as (error class, message), or None.
    """

    j: int
    A: np.ndarray
    detailed_balance: bool
    link_error: Optional[tuple] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        A, error = self.A, None
        up, down = A.diagonal(-1), A.diagonal(1)
        if np.count_nonzero(A) > sum(map(np.count_nonzero, (A.diagonal(), up, down))):
            error = (StationaryError, f"column {self.j + 1}: the sink variant's chain skips "
                                      "levels; its closed forms need one-level links")
        for name, rates, shift in (("up", up, 1), ("down", down, 2)):
            bad = np.flatnonzero(rates <= 0.0)
            if bad.size and error is None:   # shift makes the 1-based source level
                error = (DegenerateChainError, f"column {self.j + 1}: {name} rate vanishes on "
                         f"the link at level {bad[0] + shift}; the chain does not connect all levels")
        object.__setattr__(self, "link_error", error)

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
        detailed_balance=bool(column_balance_gaps(cfg)[j] <= BALANCE_TOL),
    )


def kernel_product_forms(chain: LevelChain) -> tuple[np.ndarray, np.ndarray]:
    """The chain's stationary occupation built two independent ways.

    First form chains the link ratios upward from the bottom level, second
    chains the inverse ratios downward from the top; both are normalized to
    unit mass.  They agree up to rounding and serve as a cross-check.
    Raises the chain's link_error.
    """
    if chain.link_error:
        cls, message = chain.link_error
        raise cls(message)
    up, down = chain.A.diagonal(-1), chain.A.diagonal(1)
    v_bottom = np.concatenate(([1.0], np.cumprod(up / down)))
    v_bottom /= v_bottom.sum()
    v_top = np.concatenate(([1.0], np.cumprod((down / up)[::-1])))[::-1]
    v_top /= v_top.sum()
    return v_bottom, v_top


def solve_on_complement(chain, y) -> np.ndarray:
    """Unique mean-zero z with A z = -y, for mean-zero y on a balanced chain.

    Closed-form recursion down the chain: cumulative loads on the links,
    summed back with the weights that make the result mean-zero.

    chain is one LevelChain with y of length n, solved as a stack of one, or
    a sequence of k column chains on the same n levels with y of shape
    (n, k): column c of the (n, k) result solves chain c on y[:, c].  The
    first column that fails a check (module docstring) raises its error.
    """
    if isinstance(chain, LevelChain):
        chains, yt = [chain], np.asarray(y, dtype=float).reshape(1, -1)
        if yt.size != chain.n:
            raise ValueError(f"right-hand side has length {yt.size}, chain has {chain.n}")
    else:
        chains, ya = list(chain), np.asarray(y, dtype=float)
        if (not chains or ya.ndim != 2 or ya.shape[1] != len(chains)
                or any(c.n != len(ya) for c in chains)):
            raise ValueError(f"right-hand side has shape {ya.shape}; it needs one column per "
                             f"chain ({len(chains)}), as long as every chain")
        yt = ya.T.copy()   # each column's data contiguous: its row sum is its 1-D sum's bits
    k, n = yt.shape
    sums = yt.sum(axis=1)
    biased = np.abs(sums) > MEAN_TOL * np.maximum(1.0, np.abs(yt).max(axis=1, initial=0.0))
    for c, s, off in zip(chains, sums.tolist(), biased.tolist()):
        if not c.detailed_balance:
            raise StationaryError(
                f"column {c.j + 1} chain is not detailed-balanced; "
                "the complement solve requires matching up/down link rates"
            )
        if off:
            raise StationaryError(
                f"right-hand side is not mean-zero (sum {s:.3e}); "
                "it leaves the solvable complement"
            )
        if c.link_error:
            cls, message = c.link_error
            raise cls(message)
    z = np.empty((n, k))
    loads = np.cumsum(yt, axis=1)[:, :-1] / [c.A.diagonal(-1) for c in chains]
    weights = (n - np.arange(1, n)) / n
    # one dot per column: a matrix-vector product rounds differently past length 3
    z[0] = [np.dot(weights, row) for row in loads]
    z[1:] = z[0] - np.cumsum(loads, axis=1).T
    return z[:, 0] if isinstance(chain, LevelChain) else z


@dataclass(frozen=True)
class StationarySolution:
    """The stationary expansion at a config's scales; its fields are the terms.

    x0 is uniform mass on the dominant column b, x1 the delta_int-order
    occupation correction, supported on column b, and x_corrected =
    x0 + delta_int*x1.  g0 holds each column's mean effective reward
    (constant down the column), g1 the mean-zero first payoff correction,
    and g2 the second one in the fast-discount regimes (None in ID3).
    g = g0/delta_dis + g1 (+ delta_dis*g2).  margin is the best switching
    gain at the assembled point (<= 0 certifies no profitable switch);
    margin_leading compares column reward sums directly.
    """

    x0: Occupation
    x1: np.ndarray
    x_corrected: np.ndarray
    g0: np.ndarray
    g1: np.ndarray
    g2: Optional[np.ndarray]
    g: np.ndarray
    b: int
    margin: float
    margin_leading: float
    meta: dict = field(default_factory=dict, repr=False)

    @property
    def b_1based(self) -> int:
        return self.b + 1


def stationary_solution(cfg: GameConfig) -> StationarySolution:
    """Build the full stationary expansion, certifying its preconditions.

    The preconditions are checked once each, in the order the module
    docstring lists.  The m column chains come from one cfg.moves generator
    call and their balance flags from one difference array; each term then
    takes one solve_on_complement call, x1 on column b and g1 and g2 on
    every column at once: 2 calls in ID3, 3 otherwise.

    No term depends on delta: the stimulated moves enter at unit scale, as
    cfg.move_families()' tensors (zero where a family makes no move), not as
    cfg.moves' evo, which is delta_int times them and underflows with it.
    x1: the uniform occupation feeds the stimulated moves on column b a net
    flow r per level (the tensors over n^2); x1 is the mean-zero chain
    solution balancing it on column b.  g1 solves each column's chain with
    the centered effective rewards as data.  g2's data is g1 itself in ID1;
    in ID2 it is g1 minus the expected payoff change, on g1 and net of
    fines, of the stimulated moves with partners uniform on column b (the
    tensors over n).
    """
    from .hjb import consistency_margin  # local import keeps module load light

    gaps = column_balance_gaps(cfg)
    gap = float(gaps.max())
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
    mv = cfg.moves
    A = mv.generator(np.moveaxis(mv.rate, -1, 0))   # (m, n, n): column j's chain
    chains = [LevelChain(j, A[j], bool(gaps[j] <= BALANCE_TOL)) for j in range(cfg.m)]

    live = (mv.dest != np.arange(n))[:, :, None, None]
    q = np.where(live, np.stack([e for _, (_, (_, e)) in cfg.move_families()]), 0.0)
    r = mv.net @ q[:, :, b, b].ravel() / (n * n)
    x1 = np.zeros((n, cfg.m))
    x1[:, b] = solve_on_complement(chains[b], r - r.mean())

    g0 = np.tile(sums / n, (n, 1))
    g1 = solve_on_complement(chains, effective_rewards(cfg) - g0)
    g2 = None
    if cfg.regime is Regime.ID1:
        g2 = solve_on_complement(chains, -g1)
    elif cfg.regime is Regime.ID2:
        partners = q[..., b] / n
        rhs = g1 - (partners * mv.payoff_change(g1)).sum(axis=0)
        for j in range(cfg.m):
            scale = max(1.0, float(np.max(np.abs(rhs[:, j]))))
            s = float(rhs[:, j].sum())
            if abs(s) > SOLVE_TOL * scale:
                raise StationaryError(
                    f"second-order solvability fails in column {j + 1} "
                    f"(data sums to {s:.3e}); no correction exists for this config"
                )
        g2 = solve_on_complement(chains, -(rhs - rhs.mean(axis=0)))
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
        x_corrected=x0m + cfg.delta_int * x1,
        g0=g0,
        g1=g1,
        g2=g2,
        g=g,
        b=b,
        margin=margin,
        margin_leading=margin_leading,
        meta={"column_sums": sums.copy()},
    )
