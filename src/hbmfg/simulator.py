"""Exact event-driven simulation of the N-agent Markov chain.

Agents occupy (level, behaviour) cells.  Three event families move one agent
at a time: pressure moves one level up or down at the configured per-agent
rates; stimulated moves do the same at delta_int times the pairwise rate,
scaled by the count of same-level partners over N (pairs within one cell are
counted literally, the mover included); switching moves an agent at rate lam
to the behaviour the control's target matrix names.  The level moves of both
variants come from GameConfig.moves; the sink variant's downward events drop
straight to the lowest level.

Total event rates are linear-or-quadratic in the counts, so the chain is
simulated exactly: exponential waiting time at the total rate, categorical
choice of channel.  Mean counts over N follow the kinetic equation as N grows.

The control takes the integrators' forms (kinetics.control_steps), one step
per output interval; both loops iterate one channel table per interval.

`simulate` with one seed runs a scalar per-event loop.  With a sequence of
seeds it runs the replications in lockstep: one numpy step computes every
replication's channel rates and applies its next event, while each
replication reads its own PCG64 stream exactly as the scalar loop would, so
its path is bit for bit the one its seed gives alone.  The scalar loop is the
reference the tests hold the lockstep loop to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np

from .kinetics import control_steps, integrate_forward
from .model import GameConfig, control_array, occupation_array

__all__ = [
    "CountState",
    "Transition",
    "SimPath",
    "ConvergenceStudy",
    "enumerate_transitions",
    "simulate",
    "convergence_study",
]

RNG_NAME = "pcg64"
_ROW_WIDTH = 1024    # uniforms buffered per replication, by either loop


@dataclass(frozen=True)
class CountState:
    """Agent counts per (level, behaviour) cell; N is the fixed total."""

    counts: np.ndarray
    N: int

    def __post_init__(self):
        c = np.array(self.counts, dtype=np.int64)
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)
        if c.ndim != 2:
            raise ValueError("counts must be a 2-d matrix")
        if c.min(initial=0) < 0:
            raise ValueError("counts must be nonnegative")
        if int(c.sum()) != self.N:
            raise ValueError(f"counts sum to {int(c.sum())}, expected N={self.N}")

    @staticmethod
    def from_occupation(x, N: int) -> "CountState":
        """Largest-remainder rounding of x*N; ties go to the lower flat index."""
        xa = occupation_array(x)
        target = xa * N
        base = np.floor(target)
        need = int(round(N - base.sum()))
        if need:
            rem = (target - base).ravel()
            order = np.argsort(-rem, kind="stable")
            flat = base.ravel()
            flat[order[:need]] += 1.0
        return CountState(counts=base.astype(np.int64), N=N)


class Transition(NamedTuple):
    src: tuple
    dst: tuple
    rate: float


def _build_channels(cfg: GameConfig, target: Optional[np.ndarray], N: int):
    """Static channel table: rate = coeff * counts[src] * (counts[partner] or 1).

    Walks cfg.moves cell by cell (behaviour, then level), each move family's
    own rate before its partner channels, then the cell's switch, if its
    target is another behaviour; the order decides which channel a random
    draw picks, so it fixes seeded runs.
    """
    n, m = cfg.n, cfg.m
    mv = cfg.moves
    dest, rate, evo = mv.dest.tolist(), mv.rate.tolist(), mv.evo.tolist()
    switch = None if target is None or cfg.lam <= 0.0 else target.tolist()
    srcs: List[int] = []
    dsts: List[int] = []
    coeffs: List[float] = []
    partners: List[int] = []

    def add(src, dst, coeff, partner=-1):
        if coeff > 0.0:
            srcs.append(src)
            dsts.append(dst)
            coeffs.append(coeff)
            partners.append(partner)

    for j in range(m):
        for i in range(n):
            src = i * m + j
            for f in range(len(dest)):
                dst = dest[f][i] * m + j
                add(src, dst, rate[f][i][j])
                for k in range(m):
                    add(src, dst, evo[f][i][j][k] / N, i * m + k)
            if switch is not None and switch[i][j] != j:
                add(src, i * m + switch[i][j], cfg.lam)
    return srcs, dsts, coeffs, partners


def enumerate_transitions(state: CountState, u, cfg: GameConfig) -> List[Transition]:
    """All currently possible single-agent moves with their total rates."""
    n, m = cfg.n, cfg.m
    ua = None if u is None else control_array(u, n, m)
    srcs, dsts, coeffs, partners = _build_channels(cfg, ua, state.N)
    flat = state.counts.ravel()
    out = []
    for s, t, c, p in zip(srcs, dsts, coeffs, partners):
        rate = c * float(flat[s])
        if p >= 0:
            rate *= float(flat[p])
        if rate > 0.0:
            out.append(Transition(src=(s // m, s % m), dst=(t // m, t % m), rate=rate))
    return out


@dataclass(frozen=True)
class SimPath:
    """Counts sampled on a uniform grid, plus bookkeeping for reproducibility."""

    times: np.ndarray
    counts: np.ndarray  # (len(times), n, m) int64
    N: int
    events: int
    seed: int
    event_log: Optional[list] = field(default=None, repr=False)
    meta: dict = field(default_factory=dict, repr=False)

    @property
    def x(self) -> np.ndarray:
        return self.counts / float(self.N)


def _refill(rng, rest, width: int) -> np.ndarray:
    """The unread tail `rest` of a uniform buffer, then fresh draws: width numbers.

    PCG64 yields one stream however it is split into draws, so the refilled
    buffer continues exactly where the old one stopped.
    """
    return np.concatenate((rest, rng.random(width - len(rest))))


def simulate(
    s0: CountState,
    u,
    T: float,
    seed: Union[int, Sequence[int]],
    cfg: GameConfig,
    samples: int = 50,
    record_events: bool = False,
) -> Union[SimPath, List[SimPath]]:
    """Run exact trajectories from s0 over [0, T].

    u: the integrators' control forms (kinetics.control_steps): None (nobody
    switches), one Control/(n, m) target matrix held throughout, or a
    per-interval stack of shape (samples, n, m), u[k] held on the output
    interval [times[k], times[k+1]].  A time-varying policy is given as its
    stack, sampled by the caller where it wants, so the control changes only
    at output nodes.  Restarting the exponential clock at each node is exact
    by memorylessness.

    seed: an int runs one trajectory and returns its SimPath.  A sequence of
    ints returns one SimPath per seed, in order; those replications advance
    in lockstep, one column of numpy arrays each, under the same control.
    Every trajectory draws from its own PCG64(seed) stream in the same order
    (a uniform for each wait, and one for the pick if the event falls inside
    the interval), so a lockstep replication is bit for bit the path that
    its seed gives alone.  record_events needs an int seed.
    """
    if not (0.0 < T < math.inf):
        raise ValueError("need a finite T > 0")
    if samples < 1:
        raise ValueError("need at least one output sample")
    n, m = cfg.n, cfg.m
    u_steps = control_steps(u, samples, cfg)
    tables = [_build_channels(cfg, u_steps[0], s0.N)]   # one per interval, shared while equal
    for prev, target in zip(u_steps, u_steps[1:]):
        same = target is prev or np.array_equal(target, prev)
        tables.append(tables[-1] if same else _build_channels(cfg, target, s0.N))
    times = np.linspace(0.0, T, samples + 1)
    if not isinstance(seed, (int, np.integer)):
        seeds = [int(s) for s in seed]
        if not seeds:
            raise ValueError("need at least one seed")
        if record_events:
            raise ValueError("record_events needs a single int seed")
        return _simulate_lockstep(s0, tables, times, seeds, cfg)

    rng = np.random.Generator(np.random.PCG64(seed))
    buf = _refill(rng, (), _ROW_WIDTH).tolist()
    pos = 0
    lim = _ROW_WIDTH - 2

    out = np.empty((samples + 1, n, m), dtype=np.int64)
    out[0] = s0.counts
    counts = [int(v) for v in s0.counts.ravel()]
    events = 0
    t = 0.0
    log_: Optional[list] = [] if record_events else None
    ln = math.log

    for kseg, (srcs, dsts, coeffs, partners) in enumerate(tables):
        t_end = float(times[kseg + 1])
        C = len(srcs)
        rates = [0.0] * C
        while True:
            tot = 0.0
            for c in range(C):
                r = coeffs[c] * counts[srcs[c]]
                p = partners[c]
                if p >= 0:
                    r *= counts[p]
                rates[c] = r
                tot += r
            if tot <= 0.0:
                break
            if pos > lim:
                buf = _refill(rng, buf[pos:], _ROW_WIDTH).tolist()
                pos = 0
            wait = -ln(1.0 - buf[pos]) / tot
            pos += 1
            if t + wait > t_end:
                break
            t += wait
            pick = buf[pos] * tot
            pos += 1
            acc = 0.0
            chosen = C - 1
            for c in range(C):
                acc += rates[c]
                if pick < acc:
                    chosen = c
                    break
            counts[srcs[chosen]] -= 1
            counts[dsts[chosen]] += 1
            events += 1
            if log_ is not None:
                log_.append((t, srcs[chosen], dsts[chosen]))
        t = t_end
        out[kseg + 1] = np.asarray(counts, dtype=np.int64).reshape(n, m)

    return SimPath(
        times=times,
        counts=out,
        N=s0.N,
        events=events,
        seed=seed,
        event_log=log_,
        meta={"rng": RNG_NAME},
    )


# A replication whose total rate is 0 gets a wait of x/0 (inf or nan) and leaves
# its interval without reading a uniform.
@np.errstate(divide="ignore", invalid="ignore")
def _simulate_lockstep(s0: CountState, tables: list, times: np.ndarray,
                       seeds: List[int], cfg: GameConfig) -> List[SimPath]:
    """The scalar loop of `simulate` run for every seed at once.

    Arrays hold one column per replication.  Each step computes the channel
    rates of every replication still inside the interval as the scalar loop
    does (coeff * counts[src] * counts[partner], in channel order) and takes
    their sequential cumsum, whose last entry is the total; then each
    replication draws its own wait and pick.  A replication leaves the
    interval when its total rate is 0 or its next event falls past the
    interval's end.  Replication r reads its uniforms from buf[r], _ROW_WIDTH
    numbers refilled from its own generator.  A changed channel table becomes
    column arrays indexing the (n*m + 1)-row count matrix, whose last row
    holds 1 for partnerless channels; moves[c] is channel c's change to it.
    """
    n, m = cfg.n, cfg.m
    S = n * m
    R = len(seeds)
    W = _ROW_WIDTH
    gens = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
    buf = np.stack([_refill(g, (), W) for g in gens])
    flat = buf.ravel()
    pos = np.zeros(R, dtype=np.intp)   # each replication's next unread uniform
    cnt = np.ones((S + 1, R))          # counts as exact floats
    cnt[:S] = s0.counts.reshape(S, 1)
    out = np.empty((R, len(times), n, m), dtype=np.int64)
    out[:, 0] = s0.counts
    events = np.zeros(R, dtype=np.int64)
    reps = np.arange(R)
    ln = math.log

    table = None
    for k, chans in enumerate(tables, 1):
        if chans is not table:
            table = chans
            src, dst, coeff, partner = chans
            C = len(src)
            srcs = np.array(src, dtype=np.intp)
            coeffs = np.array(coeff, dtype=np.float64)[:, None]
            partners = np.array(partner, dtype=np.intp)
            partners[partners < 0] = S
            moves = np.zeros((C, S + 1))
            moves[np.arange(C), srcs] = -1.0
            moves[np.arange(C), dst] = 1.0
        t_end = float(times[k])
        live = reps if C else reps[:0]
        c = cnt[:, live]
        t = np.full(live.size, float(times[k - 1]))
        at = live * W + pos[live]       # flat index of each live replication's next uniform
        steps = guard = 0
        while live.size:
            if guard == 0:
                p = at - live * W
                for i in np.flatnonzero(p > W - 2).tolist():
                    r = int(live[i])
                    buf[r] = _refill(gens[r], buf[r, p[i]:], W)
                    at[i] = r * W
                    p[i] = 0
                guard = (W - 2 - int(p.max())) // 2 + 1
            guard -= 1
            rates = c[srcs]
            rates *= coeffs
            rates *= c[partners]
            np.cumsum(rates, axis=0, out=rates)
            tot = rates[-1]
            # math.log, as in the scalar loop: np.log can differ in the last bit
            tn = t - np.array(list(map(ln, (1.0 - flat[at]).tolist()))) / tot
            go = tn <= t_end
            if not go.all():
                stop = ~go
                gone = live[stop]
                cnt[:, gone] = c[:, stop]
                pos[gone] = at[stop] - gone * W + (tot[stop] > 0.0)
                events[gone] += steps   # one event per step completed in this interval
                live, c, at, tn, rates = live[go], c[:, go], at[go], tn[go], rates[:, go]
                if not live.size:
                    break
                tot = rates[-1]
            t = tn
            hit = rates > flat[at + 1] * tot
            hit[-1] = True   # a pick that reaches the total takes the last channel
            c += moves[hit.argmax(axis=0)].T
            at += 2
            steps += 1
        out[:, k] = cnt[:S].T.reshape(R, n, m)

    return [SimPath(times=times, counts=out[r], N=s0.N, events=int(events[r]),
                    seed=seeds[r], meta={"rng": RNG_NAME}) for r in range(R)]


@dataclass(frozen=True)
class ConvergenceStudy:
    """Empirical mean paths vs the kinetic solution across population sizes.

    rmse[k] pools the checkpoint-and-state mean squared deviation of the
    N_values[k] empirical mean from the kinetic reference (t=0 excluded, it
    is exact by construction).  slope is the log-log fit of rmse against N;
    sqrt(1/N) sampling noise shows up as a slope near -1/2.
    """

    N_values: Sequence[int]
    rmse: np.ndarray
    slope: float
    times: np.ndarray
    means: dict
    stderrs: dict
    reference: np.ndarray
    replications: int
    seed: int


def convergence_study(
    cfg: GameConfig,
    u,
    x0,
    T: float,
    N_list: Sequence[int],
    replications: int,
    seed: int,
    samples: int = 10,
) -> ConvergenceStudy:
    """Replicated simulations at increasing N against one kinetic reference.

    Replication r at the k-th population size draws its own PCG64 stream,
    seeded seed + k*replications + r; each size is one lockstep `simulate`
    call.  Returns per-N mean paths, per-cell
    standard errors of those means, and the pooled RMSE with its log-log
    slope in N.
    """
    if len(N_list) < 2 or any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be strictly increasing with at least two sizes")
    if replications < 2:
        raise ValueError("need at least two replications for standard errors")
    x0a = occupation_array(x0)
    times = np.linspace(0.0, T, samples + 1)

    per = max(1, int(math.ceil(2000.0 / samples)))
    traj = integrate_forward(x0a, u, 0.0, T, T / (per * samples), cfg)
    ref = traj.x[::per]

    means = {}
    stderrs = {}
    rmse = np.zeros(len(N_list))
    for k, Nv in enumerate(N_list):
        s0 = CountState.from_occupation(x0a, int(Nv))
        acc = np.zeros((samples + 1, cfg.n, cfg.m))
        acc2 = np.zeros_like(acc)
        seeds = [seed + k * replications + r for r in range(replications)]
        for path in simulate(s0, u, T, seeds, cfg, samples=samples):
            xs = path.x
            acc += xs
            acc2 += xs * xs
        mean = acc / replications
        var = np.clip((acc2 - replications * mean * mean) / (replications - 1), 0.0, None)
        means[int(Nv)] = mean
        stderrs[int(Nv)] = np.sqrt(var / replications)
        rmse[k] = float(np.sqrt(np.mean((mean[1:] - ref[1:]) ** 2)))
    slope = float(np.polyfit(np.log10(np.asarray(N_list, float)), np.log10(rmse), 1)[0])
    return ConvergenceStudy(
        N_values=list(int(v) for v in N_list),
        rmse=rmse,
        slope=slope,
        times=times,
        means=means,
        stderrs=stderrs,
        reference=ref,
        replications=replications,
        seed=seed,
    )
