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
choice of channel.  One rule, coeff * counts[src] * counts[partner], gives
every channel's rate; a channel without a partner points at row n*m of the
counts, fixed at 1.  Mean counts over N follow the kinetic equation as N grows.

The control takes the integrators' forms, with one step per output
interval: None, one target matrix, or a model.ControlPath.  One channel
table serves each of its pieces, a run of intervals under one control.

`simulate` with one seed runs a scalar per-event loop, the reference the
tests hold the lockstep loop to.  With a sequence of seeds one numpy step
applies every replication's next event or node crossing, and each path is
bit for bit the one its seed gives alone (see simulate).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np

from .kinetics import integrate_forward
from .model import ControlPath, GameConfig, control_array, control_pieces, occupation_array

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
MAX_N = 2**53        # the lockstep loop and the rounding hold counts as exact floats


def _check_population(N) -> None:
    if N > MAX_N:
        raise ValueError(f"N must be at most 2**53 = {MAX_N}, the largest population "
                         f"whose counts float64 holds exactly, got {N}")


@dataclass(frozen=True)
class CountState:
    """Agent counts per (level, behaviour) cell; N is the fixed total, at most 2**53."""

    counts: np.ndarray
    N: int

    def __post_init__(self):
        _check_population(self.N)
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
        _check_population(N)
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
    """The channel table, arrays src, dst, coeff and partner of flat cells
    i * m + j: channel c moves an agent from src[c] to dst[c] at rate
    coeff[c] * counts[src[c]] * counts[partner[c]].  A channel without a
    partner points at row n * m, whose count is fixed at 1.

    Walks cfg.moves cell by cell (behaviour, then level), each move family's
    own rate before its partner channels, then the cell's switch, if its
    target is another behaviour; the order decides which channel a random
    draw picks, so it fixes seeded runs.
    """
    n, m = cfg.n, cfg.m
    unit = n * m   # the count row fixed at 1, partner of a channel without one
    mv = cfg.moves
    dest, rate, evo = mv.dest.tolist(), mv.rate.tolist(), mv.evo.tolist()
    switch = None if target is None or cfg.lam <= 0.0 else target.tolist()
    rows = []    # (src, dst, coeff, partner)
    for j in range(m):
        for i in range(n):
            src = i * m + j
            for f in range(len(dest)):
                dst = dest[f][i] * m + j
                rows.append((src, dst, rate[f][i][j], unit))
                for k in range(m):
                    rows.append((src, dst, evo[f][i][j][k] / N, i * m + k))
            if switch is not None and switch[i][j] != j:
                rows.append((src, i * m + switch[i][j], cfg.lam, unit))
    table = np.array(rows, dtype=float).reshape(-1, 4)
    src, dst, coeff, partner = table[table[:, 2] > 0.0].T
    return src.astype(np.intp), dst.astype(np.intp), coeff, partner.astype(np.intp)


def enumerate_transitions(state: CountState, u, cfg: GameConfig) -> List[Transition]:
    """All currently possible single-agent moves with their total rates."""
    n, m = cfg.n, cfg.m
    ua = None if u is None else control_array(u, n, m)
    src, dst, coeff, partner = _build_channels(cfg, ua, state.N)
    counts = np.append(state.counts.ravel(), 1.0)   # float64, with the partner row n*m
    rate = coeff * counts[src] * counts[partner]
    live = rate > 0.0
    return [Transition(src=(s // m, s % m), dst=(t // m, t % m), rate=r)
            for s, t, r in zip(src[live].tolist(), dst[live].tolist(), rate[live].tolist())]


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

    u: the integrators' control forms: None (nobody switches), one
    Control/(n, m) target matrix, or a model.ControlPath of `samples` steps,
    one per output interval, so the control changes only at output nodes.
    Restarting the exponential clock at each node is exact by memorylessness.

    seed: an int runs one trajectory and returns its SimPath.  A sequence of
    ints returns one SimPath per seed, in order, from one lockstep run
    (_simulate_lockstep; meta["lockstep_steps"] counts its steps).  Every
    trajectory draws from its own PCG64(seed) stream in the same order (a
    uniform for each wait, and one for the pick if the event falls inside
    the interval), so a lockstep replication is bit for bit the path that
    its seed gives alone.  record_events needs an int seed.
    """
    if not (0.0 < T < math.inf):
        raise ValueError("need a finite T > 0")
    if samples < 1:
        raise ValueError("need at least one output sample")
    single = isinstance(seed, (int, np.integer))
    seeds = [int(seed)] if single else [int(s) for s in seed]
    if not seeds:
        raise ValueError("need at least one seed")
    for s in seeds:
        if s < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {s}")
    if record_events and not single:
        raise ValueError("record_events needs a single int seed")
    n, m = cfg.n, cfg.m
    pieces = [(a, b, _build_channels(cfg, target, s0.N))   # one channel table per piece
              for a, b, target in control_pieces(u, samples, n, m)]
    times = np.linspace(0.0, T, samples + 1)
    if not single:
        return _simulate_lockstep(s0, pieces, times, seeds, cfg)

    rng = np.random.Generator(np.random.PCG64(seed))
    buf = _refill(rng, (), _ROW_WIDTH).tolist()
    pos = 0
    lim = _ROW_WIDTH - 2

    out = np.empty((samples + 1, n, m), dtype=np.int64)
    out[0] = s0.counts
    counts = s0.counts.ravel().tolist() + [1]   # the partner row n*m holds 1
    events = 0
    t = 0.0
    log_: Optional[list] = [] if record_events else None
    ln = math.log

    for a, b, table in pieces:
        srcs, dsts, coeffs, partners = (col.tolist() for col in table)
        C = len(srcs)
        rates = [0.0] * C
        for kseg in range(a, b):
            t_end = float(times[kseg + 1])
            while True:
                tot = 0.0
                for c in range(C):
                    r = coeffs[c] * counts[srcs[c]] * counts[partners[c]]
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
            out[kseg + 1] = np.asarray(counts[:-1], dtype=np.int64).reshape(n, m)

    return SimPath(
        times=times,
        counts=out,
        N=s0.N,
        events=events,
        seed=seed,
        event_log=log_,
        meta={"rng": RNG_NAME},
    )


# A replication whose total rate is 0 gets a wait of x/0 (inf or nan); it reads
# no uniform and leaves its piece.
@np.errstate(divide="ignore", invalid="ignore")
def _simulate_lockstep(s0: CountState, pieces: list, times: np.ndarray,
                       seeds: List[int], cfg: GameConfig) -> List[SimPath]:
    """The scalar loop of `simulate` run for every seed at once.

    The output intervals come in pieces (first, end, channel table): runs of
    intervals under one control.  Within a piece, arrays hold one
    column per replication still in it, and each column carries its own
    time, interval and next uniform.  Each step computes every column's
    channel rates as the scalar loop does (coeff * counts[src] *
    counts[partner], in channel order) and their sequential cumsum, whose
    entry C is the total; then each replication draws its own wait.  One
    whose wait passes its interval's end crosses the node: it has read only
    that wait, writes its counts at the node and goes on from the node time,
    without waiting for the others.  One whose total rate is 0 reads nothing,
    fills the piece's remaining nodes with its counts and leaves; so does one
    that crosses the piece's last node.  Replications meet again only where
    a piece starts.

    Replication r reads its uniforms from buf[r], _ROW_WIDTH numbers refilled
    from its own generator.  The count matrix has n*m + 1 rows, the last the
    partner row of 1s, and a piece's table runs between two extra channels:
    channel 0 has rate 0 and moves nobody, which is what a crossing's pick of
    -1 takes, and channel C + 1 has rate inf and moves as the last real
    channel, which is what a pick that reaches the total takes.  moves[:, k]
    is channel k's change to the counts.
    """
    n, m = cfg.n, cfg.m
    S = n * m
    R = len(seeds)
    K = len(times)
    W = _ROW_WIDTH
    gens = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
    buf = np.stack([_refill(g, (), W) for g in gens])
    flat = buf.ravel()
    picks = flat[1:]                   # picks[i] is flat[i + 1], the uniform after a wait
    comp = 1.0 - buf                   # 1 - u, the scalar loop's log argument
    comp_flat = comp.ravel()
    pos = np.zeros(R, dtype=np.intp)   # each replication's next unread uniform
    cnt = np.ones((S + 1, R))          # counts as exact floats
    cnt[:S] = s0.counts.reshape(S, 1)
    out = np.empty((R * K, S), dtype=np.int64)   # row r*K + k: replication r at node k
    out[::K] = s0.counts.reshape(S)
    node_time = np.append(np.tile(times, R), np.inf)   # the time of each row of out
    events = np.zeros(R, dtype=np.int64)
    reps = np.arange(R)
    ln = math.log
    total_steps = 0

    for j0, j1, (src, dst, coeff, partner) in pieces:
        # the piece spans intervals j0 .. j1 - 1, from node j0 to node j1
        C = len(src)
        if not C:
            out.reshape(R, K, S)[:, j0 + 1:j1 + 1] = cnt[:S].T[:, None]
            continue
        take = np.concatenate(([S], src, [S, S], partner, [S]))
        coeffs = np.concatenate(([0.0], coeff, [math.inf]))[:, None]
        moves = np.zeros((S + 1, C + 2))
        moves[src, range(1, C + 1)] = -1.0
        moves[dst, range(1, C + 1)] = 1.0
        moves[:, C + 1] = moves[:, C]
        last = float(times[j1])

        live = reps
        c = cnt.copy()
        t = np.full(R, float(times[j0]))
        node = reps * K + (j0 + 1)       # the row of out at each column's interval end
        te = node_time.take(node)
        at = reps * W + pos              # flat index of each column's next uniform
        steps = guard = 0
        while True:
            if guard == 0:
                p = at - live * W
                for i in np.flatnonzero(p > W - 2).tolist():
                    r = int(live[i])
                    buf[r] = _refill(gens[r], buf[r, p[i]:], W)
                    comp[r] = 1.0 - buf[r]
                    at[i] = r * W
                    p[i] = 0
                guard = (W - 2 - int(p.max())) // 2 + 1
            guard -= 1
            steps += 1
            g = c.take(take, axis=0)
            rates = g[:C + 2]
            rates *= coeffs
            rates *= g[C + 2:]
            np.add.accumulate(rates, axis=0, out=rates)
            tot = rates[C]
            # math.log, as in the scalar loop: np.log can differ in the last bit
            tn = t - np.array(list(map(ln, comp_flat.take(at).tolist()))) / tot
            pick = picks.take(at) * tot
            go = tn <= te
            if not go.all():
                # every column writes its counts at its interval's end; the last
                # write there before the column moves on is the crossing's
                out[node] = c[:S].T
                cross = ~go
                tn = np.minimum(tn, te)   # a crossing restarts the clock at its node
                pick[cross] = -1.0        # and takes channel 0, which moves nobody
                at -= cross               # it read only its wait
                node += cross
                te = node_time.take(node)
                # a column that passed the piece's last node restarts at `last`
                if tn.max() >= last or not tot.all():
                    stall = tot == 0.0
                    done = stall | (node - live * K > j1)
                    gone = live[done]
                    for r, row in zip(gone.tolist(), node[done].tolist()):
                        out[row:r * K + j1 + 1] = out[row - 1]   # a stall fills its piece
                    cnt[:, gone] = c[:, done]
                    pos[gone] = at[done] + 2 - gone * W - stall[done]
                    # each step was an event or a node passed (a stall passes one)
                    events[gone] += steps - (node[done] - gone * K - j0 - 1)
                    keep = ~done
                    live, c, rates, pick, tn, te, node, at = (
                        live[keep], c[:, keep], rates[:, keep], pick[keep], tn[keep],
                        te[keep], node[keep], at[keep])
                    if not live.size:
                        break
            c += moves.take((rates > pick).argmax(axis=0), axis=1)
            t = tn
            at += 2
        total_steps += steps

    out = out.reshape(R, K, n, m)
    return [SimPath(times=times, counts=out[r], N=s0.N, events=int(events[r]), seed=seeds[r],
                    meta={"rng": RNG_NAME, "lockstep_steps": total_steps})
            for r in range(R)]


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
    call.  u takes simulate's forms; the kinetic reference holds a control
    path's targets over each output interval's integration steps.  Returns per-N
    mean paths, per-cell standard errors of those means, and the pooled RMSE
    with its log-log slope in N.
    """
    if len(N_list) < 2 or any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be strictly increasing with at least two sizes")
    if replications < 2:
        raise ValueError("need at least two replications for standard errors")
    x0a = occupation_array(x0)
    times = np.linspace(0.0, T, samples + 1)

    per = max(1, int(math.ceil(2000.0 / samples)))
    control_pieces(u, samples, cfg.n, cfg.m)  # a path is checked against samples first
    ref_u = ControlPath(u.starts * per, u.targets, samples * per) if isinstance(
        u, ControlPath) else u
    traj = integrate_forward(x0a, ref_u, 0.0, T, T / (per * samples), cfg)
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
