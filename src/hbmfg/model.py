"""Game data model.

A population of agents lives on an n x m grid of states: n hierarchy levels
(moved up and down by principal pressure and by stimulating interactions with
peers on the same level) and m behaviour levels (changed by the agents' own
decisions).  This module holds the immutable configuration with its table
of level moves, the occupation and the piecewise-constant control types,
structural validation, and the derived reward quantities everything
downstream is built from.

Indexing is 0-based in memory; file formats and reports are 1-based.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

__all__ = [
    "Regime",
    "SinkRates",
    "Moves",
    "GameConfig",
    "Occupation",
    "Control",
    "DominanceReport",
    "regime_scales",
    "validate",
    "balance_gap",
    "column_balance_gaps",
    "effective_rewards",
    "dominant_level",
    "grid_array",
    "occupation_array",
    "control_pieces",
]

# Tie / degeneracy tolerance for reward column sums (relative to their scale).
TIE_TOL = 1e-12
# Detailed balance holds when balance_gap is at most this.
BALANCE_TOL = 1e-12


class Regime(enum.Enum):
    """Asymptotic coupling between the interaction and discount scales.

    id1: delta_int = delta^2, delta_dis = delta
    id2: delta_int = delta,   delta_dis = delta
    id3: delta_int = delta,   delta_dis = delta^2
    """

    ID1 = "id1"
    ID2 = "id2"
    ID3 = "id3"


def regime_scales(regime: Regime, delta: float) -> tuple[float, float]:
    """Return (delta_int, delta_dis) for a regime at base scale delta."""
    if regime is Regime.ID1:
        return delta * delta, delta
    if regime is Regime.ID2:
        return delta, delta
    if regime is Regime.ID3:
        return delta, delta * delta
    raise ValueError(f"unknown regime: {regime!r}")


def _ro(a, dtype=float) -> np.ndarray:
    """Copy to a read-only contiguous array."""
    arr = np.array(a, dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SinkRates:
    """Rates for the variant where downward moves drop straight to level 1.

    direct[i, j]: spontaneous drop rate out of state (i, j).  interaction[i,
    j, k]: stimulated drop rate for an agent at (i, j) paired with one at
    (i, k).  Row 0 of both must be zero: the lowest level cannot drop.
    """

    direct: np.ndarray
    interaction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "direct", _ro(self.direct))
        object.__setattr__(self, "interaction", _ro(self.interaction))


@dataclass(frozen=True)
class Moves:
    """The level moves of the jump process, one family per leading index.

    Family f sends an agent at (i, j) to (dest[f, i], j) at the per-capita
    rate rate[f, i, j] + sum_k evo[f, i, j, k] * x[i, k] (delta_int folded
    into evo) and charges fine[f, i] on every such move.  dest[f, i] == i
    means no move; its rates are zero.  net[a, f*n + i] is the change in
    level a's count when family f moves one agent out of level i, so the
    kinetic flow is net @ flux and the payoff differences are net.T @ g.
    """

    dest: np.ndarray
    rate: np.ndarray
    evo: np.ndarray
    fine: np.ndarray
    net: np.ndarray

    def per_capita(self, x: Optional[np.ndarray], out: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-capita rates (..., F, n, m) at occupations x (..., n, m), one
        matrix or a stack of them, written into out when given; None means
        no partners: (F, n, m), the rates themselves."""
        if x is None:
            return self.rate
        rate = np.matmul(self.evo, x[..., None, :, :, None],
                         out=None if out is None else out[..., None])[..., 0]
        rate += self.rate   # the same bits as self.rate + rate: IEEE + commutes
        return rate

    def generator(self, rates: np.ndarray) -> np.ndarray:
        """The n x n level chains (..., n, n) of per-capita rates (..., F, n),
        one column's rates or a stack of them.

        A[a, i] is the rate at which one agent at level i adds to level a's
        count, so A @ v is the flow of column occupation v; columns sum to zero.
        """
        n = self.net.shape[0]
        return np.einsum("afi,...fi->...ai", self.net.reshape(n, -1, n), rates)

    def payoff_change(self, g: np.ndarray) -> np.ndarray:
        """(F, n, m): what each move gains on payoff g, net of its fine."""
        return (self.net.T @ g).reshape(self.rate.shape) - self.fine[:, :, None]


@dataclass(frozen=True)
class GameConfig:
    """Immutable problem description.

    Pressure rates q_up/q_down are (n, m): q_up[i, j] moves (i, j) -> (i+1, j),
    q_down[i, j] moves (i, j) -> (i-1, j).  Evolutionary (interaction) tensors
    q_up_evo/q_down_evo are (n, m, m): entry [i, j, k] is the stimulated rate
    for an agent at (i, j) paired with an agent at (i, k).  Top row of the up
    rates and bottom row of the down rates must be zero; q_sink, when given,
    replaces the down rates (move_families).

    w[i, j] is the per-state reward flow, fee_B[j, k] the behaviour switching
    fee (zero diagonal), fee_H[i] the fine charged on an enforced downgrade
    out of level i.  lam is the decision-clock rate and delta the base
    asymptotic scale.  delta_int and delta_dis are not arguments: each is
    derived from regime and delta (regime_scales), so replace() re-derives them.
    """

    n: int
    m: int
    q_up: np.ndarray
    q_down: np.ndarray
    q_up_evo: np.ndarray
    q_down_evo: np.ndarray
    w: np.ndarray
    fee_B: np.ndarray
    fee_H: np.ndarray
    lam: float = 1.0
    delta: float = 0.1
    regime: Regime = Regime.ID1
    detailed_balance: bool = False
    q_sink: Optional[SinkRates] = None
    delta_int: float = field(init=False)
    delta_dis: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", int(self.m))
        for name in ("q_up", "q_down", "q_up_evo", "q_down_evo", "w", "fee_B", "fee_H"):
            object.__setattr__(self, name, _ro(getattr(self, name)))
        if isinstance(self.regime, str):
            object.__setattr__(self, "regime", Regime(self.regime.lower()))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "delta", float(self.delta))
        d_int, d_dis = regime_scales(self.regime, self.delta)
        object.__setattr__(self, "delta_int", d_int)
        object.__setattr__(self, "delta_dis", d_dis)

    def move_families(self) -> list:
        """The level-move families: up one level, then down one level or the sink drop.

        Each is (dest, ((name, rate), (name, evo))): the family sends level i
        to dest[i] (dest[i] == i: no move) at the (n, m) rates and the
        (n, m, m) interaction tensor it reads from the config field named.
        """
        lv = np.arange(self.n)
        up = (np.minimum(lv + 1, self.n - 1), (("q_up", self.q_up), ("q_up_evo", self.q_up_evo)))
        if self.q_sink is None:
            return [up, (np.maximum(lv - 1, 0),
                         (("q_down", self.q_down), ("q_down_evo", self.q_down_evo)))]
        return [up, (np.zeros(self.n, int), (("q_sink.direct", self.q_sink.direct),
                                             ("q_sink.interaction", self.q_sink.interaction)))]

    @cached_property
    def moves(self) -> Moves:
        """The level moves, one family each as move_families() lists them.

        Built on first use so that validate() can report malformed shapes.
        """
        n = self.n
        lv = np.arange(n)
        families = self.move_families()
        dest = np.stack([d for d, _ in families])
        live = (dest != lv)[:, :, None]
        net = np.zeros((n, len(families) * n))
        cols = np.arange(len(families) * n)
        net[dest.ravel(), cols] = 1.0
        net[np.tile(lv, len(families)), cols] -= 1.0
        return Moves(
            dest=_ro(dest, int),
            rate=_ro(np.where(live, np.stack([r for _, ((_, r), _) in families]), 0.0)),
            evo=_ro(np.where(live[..., None], self.delta_int
                             * np.stack([e for _, (_, (_, e)) in families]), 0.0)),
            fine=_ro(np.stack([np.zeros(n), self.fee_H])),
            net=_ro(net),
        )

    @cached_property
    def switch_fee(self) -> np.ndarray:
        """fee_B with +inf on its diagonal: staying is no switch and gains -inf."""
        return _ro(np.where(np.eye(self.m, dtype=bool), np.inf, self.fee_B))

    @cached_property
    def _level_cells(self) -> np.ndarray:
        return _ro(self.m * np.arange(self.n)[:, None], int)   # each level's first flat cell

    def switch_cells(self, target: np.ndarray) -> np.ndarray:
        """The flat cell i * m + target[i, j] each (i, j) switches to; a stay maps to itself."""
        return target + self._level_cells


@dataclass(frozen=True)
class Occupation:
    """Population distribution over the state grid: nonnegative, sums to 1."""

    x: np.ndarray

    SUM_TOL = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "x", _ro(self.x))
        if self.x.ndim != 2:
            raise ValueError("occupation must be a matrix")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("occupation has non-finite entries")
        if self.x.min() < -self.SUM_TOL:
            raise ValueError(f"occupation has negative entry {self.x.min():.3e}")
        s = float(self.x.sum())
        if abs(s - 1.0) > self.SUM_TOL:
            raise ValueError(f"occupation mass {s!r} differs from 1 beyond 1e-9")

    @staticmethod
    def uniform(n: int, m: int) -> "Occupation":
        return Occupation(np.full((n, m), 1.0 / (n * m)))


@dataclass(frozen=True, eq=False)
class Control:
    """A pure strategy, piecewise constant on a grid of n_steps steps: from step
    starts[p] up to the next piece's start, an agent at (i, j) switches to
    behaviour targets[p, i, j], an integer in [0, m) (== j: stay).  starts
    rise from 0 below n_steps; one fixed matrix is a one-piece control."""

    starts: np.ndarray
    targets: np.ndarray
    n_steps: int

    def __post_init__(self):
        starts, t = np.asarray(self.starts), np.asarray(self.targets)
        if (t.ndim != 3 or starts.shape != t.shape[:1] or not len(starts) or starts[0] != 0
                or not np.issubdtype(starts.dtype, np.integer) or np.any(np.diff(starts) <= 0)
                or starts[-1] >= self.n_steps):
            raise ValueError("a control holds one (n, m) target matrix per piece, from "
                             f"starts rising from 0 below its {self.n_steps} steps")
        if not np.issubdtype(t.dtype, np.integer):
            raise ValueError("control must be an integer (n, m) target matrix")
        if t.size and (t.min() < 0 or t.max() >= t.shape[2]):
            raise ValueError(f"control targets must lie in [0, {t.shape[2]})")
        object.__setattr__(self, "starts", _ro(starts, int))
        object.__setattr__(self, "targets", _ro(t, int))

    @staticmethod
    def stay(n: int, m: int, n_steps: int) -> "Control":
        """The one-piece control in which nobody switches."""
        return Control([0], [np.tile(np.arange(m), (n, 1))], n_steps)

    @staticmethod
    def of_steps(stack) -> "Control":
        """The control of a per-step stack (n_steps, n, m): a piece starts at
        step 0 and wherever a step's targets differ from the step before."""
        stack = np.asarray(stack)
        if stack.ndim != 3 or not len(stack):
            raise ValueError("a per-step control is a stack of (n, m) target matrices")
        new = np.concatenate(([True], np.any(stack[1:] != stack[:-1], axis=(1, 2))))
        return Control(np.flatnonzero(new), stack[new], len(stack))

    @property
    def nbytes(self) -> int:
        return self.starts.nbytes + self.targets.nbytes

    def steps_differing(self, other: "Control") -> int:
        """The number of steps on which this control and other hold different targets."""
        if other.n_steps != self.n_steps:
            raise ValueError("controls on different grids")
        cuts = np.array(sorted({*self.starts.tolist(), *other.starts.tolist()}))
        mine, theirs = (p.targets[np.searchsorted(p.starts, cuts, side="right") - 1]
                        for p in (self, other))
        return int(np.diff(cuts, append=self.n_steps)[np.any(mine != theirs, axis=(1, 2))].sum())


def grid_array(a, shape, name: str) -> np.ndarray:
    """a as a float ndarray.  One not of the given shape, the grid's (n, m),
    is refused by name: an occupation or a payoff."""
    a = np.asarray(a, dtype=float)
    if shape is not None and a.shape != tuple(shape):
        raise ValueError(f"{name} of shape {a.shape} does not match the grid's {tuple(shape)}")
    return a


def occupation_array(x, shape=None) -> np.ndarray:
    """Accept an Occupation or a bare matrix; return it as grid_array does."""
    return grid_array(x.x if isinstance(x, Occupation) else x, shape, "occupation")


def control_pieces(u, n_steps: int, n: int, m: int) -> list:
    """(first step, end step, targets) of each piece of a control on n_steps
    steps: None (one piece of None: nobody switches), one (n, m) target
    matrix held on every step (a one-piece Control), or a Control of n_steps
    steps.  Every control is checked by Control's rule."""
    if u is None:
        return [(0, n_steps, None)]
    if not isinstance(u, Control):
        u = Control([0], [u], n_steps)
    if u.n_steps != n_steps or u.targets.shape[1:] != (n, m):
        raise ValueError(f"control of shape {(u.n_steps,) + u.targets.shape[1:]} does not "
                         f"match the grid's {n_steps} steps of one ({n}, {m}) target matrix each")
    return list(zip(u.starts.tolist(), u.starts.tolist()[1:] + [n_steps], u.targets))


def _check_matrix(out: list, name: str, a: np.ndarray, shape: tuple) -> bool:
    if a.shape != shape:
        out.append(f"{name}: expected shape {shape}, got {a.shape}")
        return False
    if not np.all(np.isfinite(a)):
        out.append(f"{name}: non-finite entries")
        return False
    return True


def validate(cfg: GameConfig, memo: Optional[dict] = None) -> list[str]:
    """Structural validation; returns a list of human-readable violations.

    Empty list means the configuration is well formed.  Indices in messages
    are 1-based; the array checks come first, then the scales, then detailed
    balance.

    memo, if given, keeps the array checks' and the balance check's
    violations by what they read: n, m, the detailed_balance flag, whether
    a sink is present, and each checked array's shape and bytes.  Configs
    that share those arrays, as the values of a sweep do, check them once;
    the scales, and the stimulated rates they scale, are checked on every
    call.  A key made of the bytes cannot
    go stale, so the memo may outlive any one config.
    """
    n, m = cfg.n, cfg.m
    if n < 1 or m < 1:
        return [f"dimensions: n={n}, m={m} must be positive"]
    if memo is None:
        arrays, balance, largest = _array_violations(cfg)
    else:
        key = ("validate", n, m, cfg.detailed_balance, cfg.q_sink is not None,
               *[(a.shape, a.tobytes()) for a in _checked_arrays(cfg)])
        if (hit := memo.get(key)) is None:
            hit = memo[key] = _array_violations(cfg)
        arrays, balance, largest = hit
    return arrays + _scale_violations(cfg, largest) + balance


def _checked_arrays(cfg: GameConfig) -> list:
    """Every array _array_violations reads."""
    sink = () if cfg.q_sink is None else (cfg.q_sink.direct, cfg.q_sink.interaction)
    return [cfg.q_up, cfg.q_down, cfg.q_up_evo, cfg.q_down_evo, cfg.w, cfg.fee_B, cfg.fee_H,
            *sink]


def _position(idx) -> str:
    return ",".join(str(i + 1) for i in idx)


def _array_violations(cfg: GameConfig) -> tuple[list, list, list]:
    """validate's violations of the arrays, and of detailed balance, and the
    entry of largest magnitude of each well-formed interaction tensor, as
    (name, 1-based position, value), for the scale checks."""
    v: list[str] = []
    largest = []
    n, m = cfg.n, cfg.m
    ok = {}
    for dest, pairs in cfg.move_families():
        dead = np.flatnonzero(dest == np.arange(n))
        for (name, a), shape in zip(pairs, ((n, m), (n, m, m))):
            ok[name] = _check_matrix(v, name, a, shape)
            if not ok[name]:
                continue
            if a.min() < 0:
                idx = np.unravel_index(int(np.argmin(a)), a.shape)
                v.append(f"{name}[{_position(idx)}]: negative rate {float(a[idx])!r}")
            if a.ndim == 3:   # the family's interaction tensor
                idx = np.unravel_index(int(np.argmax(np.abs(a))), a.shape)
                largest.append((name, _position(idx), float(a[idx])))
            v.extend(f"{name} row {i + 1} nonzero: no such move out of level {i + 1}"
                     for i in dead if np.any(a[i] != 0))
    if cfg.q_sink is not None:  # the sink drop replaces step-down moves; mixing is rejected
        for name, shape in (("q_down", (n, m)), ("q_down_evo", (n, m, m))):
            a = getattr(cfg, name)
            ok[name] = _check_matrix(v, name, a, shape)
            if ok[name] and np.any(a != 0):
                v.append(f"q_sink present but {name} nonzero: pick one downward mechanism")

    _check_matrix(v, "w", cfg.w, (n, m))
    ok_fb = _check_matrix(v, "fee_B", cfg.fee_B, (m, m))
    ok_fh = _check_matrix(v, "fee_H", cfg.fee_H, (n,))

    if ok_fb:
        if np.any(np.diag(cfg.fee_B) != 0):
            v.append("fee_B diagonal must be zero")
        if cfg.fee_B.min() < 0:
            v.append("fee_B has negative entries")
    if ok_fh and cfg.fee_H.min() < 0:
        v.append("fee_H has negative entries")

    balance = []
    if cfg.detailed_balance and ok["q_up"] and ok["q_down"]:
        gap, (i, j) = balance_gap(cfg)
        if not gap <= BALANCE_TOL:
            balance.append(
                f"detailed_balance: q_up[{i + 1},{j + 1}] != q_down[{i + 2},{j + 1}] "
                f"({float(cfg.q_up[i, j])!r} vs {float(cfg.q_down[i + 1, j])!r})"
            )
    return v, balance, largest


def _scale_violations(cfg: GameConfig, largest: list) -> list[str]:
    """validate's violations of lambda and the scales, written so that nan fails
    too, and of the stimulated rates they give: delta_int times each
    interaction tensor must be finite, which holds when it does at the
    tensor's largest entry (`largest`, from _array_violations)."""
    v = []
    if not (0 <= cfg.lam < np.inf):
        v.append(f"lambda: decision rate must be finite and nonnegative, got {cfg.lam!r}")
    if not (0 < cfg.delta < np.inf):
        v.append(f"delta: must be finite and positive, got {cfg.delta!r}")
    elif not (0 < cfg.delta_dis < np.inf and cfg.delta_int < np.inf):  # delta^2 over/underflows
        v.append(f"regime {cfg.regime.value} at delta={cfg.delta!r}: derived scales "
                 f"delta_int={cfg.delta_int!r}, delta_dis={cfg.delta_dis!r} must be "
                 "finite, delta_dis positive")
    else:   # a Python product: an overflow gives inf, and no warning
        v.extend(f"{name}[{pos}]: {a!r} times delta_int={cfg.delta_int!r} is not finite"
                 for name, pos, a in largest if not math.isfinite(cfg.delta_int * a))
    return v


def _link_gaps(cfg: GameConfig) -> tuple[np.ndarray, float]:
    """Each link's |q_up[i, j] - q_down[i+1, j]|, (n - 1, m), and the scale the
    gaps are taken relative to: max(1, largest link rate of the config)."""
    up, down = cfg.q_up[:-1], cfg.q_down[1:]
    scale = max(1.0, float(np.max(np.abs(up), initial=0.0)),
                float(np.max(np.abs(down), initial=0.0)))
    return np.abs(up - down), scale


def balance_gap(cfg: GameConfig) -> tuple[float, tuple[int, int]]:
    """Worst detailed-balance link gap and the 0-based (i, j) where it sits.

    The gap is |q_up[i, j] - q_down[i+1, j]| relative to max(1, largest link
    rate of the config).  Detailed balance holds when it is at most BALANCE_TOL.
    """
    diff, scale = _link_gaps(cfg)
    if diff.size == 0:
        return 0.0, (0, 0)
    i, k = np.unravel_index(int(np.argmax(diff)), diff.shape)
    return float(diff[i, k]) / scale, (int(i), int(k))


def column_balance_gaps(cfg: GameConfig) -> np.ndarray:
    """The worst balance_gap of each column alone, (m,), from one difference array."""
    diff, scale = _link_gaps(cfg)
    return diff.max(axis=0, initial=0.0) / scale


def effective_rewards(cfg: GameConfig) -> np.ndarray:
    """Reward flow net of expected pressure fines: w[i,j] - sum_f rate[f,i,j]*fine[f,i]."""
    mv = cfg.moves
    return cfg.w - (mv.rate * mv.fine[:, :, None]).sum(axis=0)


@dataclass(frozen=True)
class DominanceReport:
    """Which behaviour level the net rewards single out."""

    level: int  # 0-based index of the maximal column sum
    unique: bool
    nonzero_sums: bool  # every column sum bounded away from zero
    column_sums: np.ndarray = field(repr=False)
    tol: float = TIE_TOL


def dominant_level(cfg: GameConfig) -> DominanceReport:
    """Locate the behaviour column with the largest net reward sum.

    Uniqueness is decided at a 1e-12 tolerance relative to the largest
    column-sum magnitude; the report also says whether every column sum is
    nonzero at the same tolerance (degenerate rewards break the stationary
    expansion).
    """
    sums = effective_rewards(cfg).sum(axis=0)
    scale = float(np.max(np.abs(sums))) if sums.size else 0.0
    tol = TIE_TOL * max(1.0, scale)
    b = int(np.argmax(sums))
    near = np.abs(sums - sums[b]) <= tol
    unique = int(near.sum()) == 1
    nonzero = bool(np.all(np.abs(sums) > tol))
    return DominanceReport(
        level=b, unique=unique, nonzero_sums=nonzero, column_sums=_ro(sums), tol=tol
    )
