"""Exact event-driven simulation of the N-agent Markov chain.

Agents occupy (level, behaviour) cells.  Three event families move one agent
at a time: pressure moves one level up or down at the configured per-agent
rates; stimulated moves do the same at delta_int times the pairwise rate,
scaled by the count of same-level partners over N (pairs within one cell are
counted literally, the mover included); switching moves an agent at rate lam
to the cell GameConfig.switch_cells gives for the control's target matrix.
The level moves of both variants come from GameConfig.moves; the sink
variant's downward events drop straight to the lowest level.

Total event rates are linear-or-quadratic in the counts, so the chain is
simulated exactly (Gillespie): exponential waiting time at the total rate,
categorical choice of channel.  One rule, coeff * counts[src] * counts[partner],
gives every channel's rate; a channel without a partner points at row n*m of
the counts, fixed at 1.  Mean counts over N follow the kinetic equation as N grows.

The control takes the integrators' forms, with one step per output
interval: None, one target matrix, or a model.Control.  One channel table
serves each of its pieces, a run of intervals under one target matrix.

Each replication reads its own PCG64 stream in order: a uniform u for each
wait, -math.log(1 - u) / total, then one for the pick if the event falls
inside the interval, which takes the first channel whose running rate sum
passes u * total (the last if rounding lets u * total reach the total).
`simulate` runs every seed count, one included, in one lockstep loop: a
numpy step applies every replication's next event or node crossing, and
each path is bit for bit the one its seed gives alone.  When the
replications expect many events before their next output node, a step
speculates: it guesses up to a power of two of each replication's next
events from the current running rate sums, checks every guess against the
exact rates of the state the guesses before it give, and keeps the
verified ones (optimistic execution, checked after the fact).  Its arrays
stay within a fixed _SPEC_BYTES, whatever the replications.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np

from .kinetics import MAX_STEPS, NODE_BYTES, check_nodes, integrate_forward
from .model import Control, GameConfig, control_pieces, occupation_array

__all__ = [
    "CountState",
    "Transition",
    "SimPath",
    "ConvergenceStudy",
    "enumerate_transitions",
    "simulate",
    "replication_summary",
    "convergence_study",
]

RNG_NAME = "pcg64"
_ROW_WIDTH = 1024    # uniforms buffered per replication: a wait's, then a pick's, per event
_CHANNEL_VALUES = 6  # a bound on the values a lockstep step holds per channel and replication
_SPEC_BYTES = 3 << 19   # 1.5 MiB, a bound on a speculative lockstep step's arrays
_SPEC_MAX = _ROW_WIDTH // 8   # the most events a column takes in one lockstep step
_SPEC_MIN_K = 32        # a lockstep step takes fewer events per column than this one at a time
MAX_N = 2**53        # the lockstep loop and the rounding hold counts as exact floats


def _check_population(N) -> None:
    if N < 1:   # the channel table divides the stimulated rates by N
        raise ValueError(f"N must be at least 1, got {N}: an empty population has no shares")
    if N > MAX_N:
        raise ValueError(f"N must be at most 2**53 = {MAX_N}, the largest population "
                         f"whose counts float64 holds exactly, got {N}")


@dataclass(frozen=True)
class CountState:
    """Agent counts per (level, behaviour) cell; N is the fixed total, from 1 to 2**53."""

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
        """Largest-remainder rounding of x*N; ties go to the lower flat index.

        A mass just above 1, which Occupation accepts, floors to more than N
        agents: one leaves each of that many occupied cells, smallest
        remainders first, and the largest cell gives any excess beyond them.
        """
        _check_population(N)
        target = occupation_array(x) * N
        base = np.floor(target)
        need = int(round(N - base.sum()))
        rem, flat = (target - base).ravel(), base.ravel()
        if need > 0:
            flat[np.argsort(-rem, kind="stable")[:need]] += 1.0
        elif need < 0:
            occupied = np.flatnonzero(flat >= 1.0)
            take = occupied[np.argsort(rem[occupied], kind="stable")[:-need]]
            flat[take] -= 1.0
            flat[np.argmax(flat)] += need + len(take)
        return CountState(counts=base.astype(np.int64), N=N)


def _check_output_grid(T, samples) -> None:
    """simulate's rules for its output grid, `samples` intervals over [0, T]."""
    if not (0.0 < T < math.inf):
        raise ValueError("need a finite T > 0")
    if not 1 <= samples <= MAX_STEPS:
        raise ValueError(f"need 1 to {MAX_STEPS} output samples, got {samples}")


def _check_grid(state: CountState, cfg: GameConfig) -> None:
    if state.counts.shape != (cfg.n, cfg.m):
        raise ValueError(f"counts of shape {state.counts.shape} do not match the grid's "
                         f"{(cfg.n, cfg.m)}")


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
    own rate before its partner channels, then the cell's switch to its
    cfg.switch_cells destination, if that is another cell; the order decides
    which channel a random draw picks, so it fixes seeded runs.
    """
    n, m = cfg.n, cfg.m
    unit = n * m   # the count row fixed at 1, partner of a channel without one
    mv = cfg.moves
    dest, rate, evo = mv.dest.tolist(), mv.rate.tolist(), mv.evo.tolist()
    switch = None if target is None or cfg.lam <= 0.0 else cfg.switch_cells(target).tolist()
    rows = []    # (src, dst, coeff, partner)
    for j in range(m):
        for i in range(n):
            src = i * m + j
            for f in range(len(dest)):
                dst = dest[f][i] * m + j
                rows.append((src, dst, rate[f][i][j], unit))
                for k in range(m):
                    rows.append((src, dst, evo[f][i][j][k] / N, i * m + k))
            if switch is not None and switch[i][j] != src:
                rows.append((src, switch[i][j], cfg.lam, unit))
    table = np.array(rows, dtype=float).reshape(-1, 4)
    src, dst, coeff, partner = table[table[:, 2] > 0.0].T
    return src.astype(np.intp), dst.astype(np.intp), coeff, partner.astype(np.intp)


def enumerate_transitions(state: CountState, u, cfg: GameConfig) -> List[Transition]:
    """All currently possible single-agent moves with their total rates."""
    _check_grid(state, cfg)
    n, m = cfg.n, cfg.m
    target = control_pieces(u, 1, n, m)[0][2]
    src, dst, coeff, partner = _build_channels(cfg, target, state.N)
    counts = np.append(state.counts.ravel(), 1.0)   # float64, with the partner row n*m
    rate = coeff * counts[src] * counts[partner]
    live = rate > 0.0
    return [Transition(src=(s // m, s % m), dst=(t // m, t % m), rate=r)
            for s, t, r in zip(src[live].tolist(), dst[live].tolist(), rate[live].tolist())]


@dataclass(frozen=True)
class SimPath:
    """Counts sampled on a uniform grid, plus bookkeeping for reproducibility.

    meta holds the generator's name, "rng", and "lockstep_steps", the steps
    of the simulate call that made the path (see _simulate_lockstep).
    """

    times: np.ndarray
    counts: np.ndarray  # (len(times), n, m) int64
    N: int
    events: int
    seed: int
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


def _count(seeds: Sequence[int]) -> int:
    # len(seeds), also for a range past sys.maxsize, which len() cannot give
    if isinstance(seeds, range):
        return max(0, -((seeds.start - seeds.stop) // seeds.step))
    return len(seeds)


def simulate(
    s0: CountState,
    u,
    T: float,
    seed: Union[int, Sequence[int]],
    cfg: GameConfig,
    samples: int = 50,
) -> Union[SimPath, List[SimPath]]:
    """Run exact trajectories from s0 over [0, T].

    u: the integrators' control forms: None (nobody switches), one (n, m)
    target matrix, or a model.Control of `samples` steps,
    one per output interval, so the control changes only at output nodes.
    Restarting the exponential clock at each node is exact by memorylessness.

    seed: an int returns one SimPath, a sequence of ints one SimPath per
    seed, in order.  Every seed count runs one lockstep loop
    (_simulate_lockstep; meta["lockstep_steps"] counts its steps,
    one-event and speculative alike).  Every trajectory reads its own
    PCG64(seed) stream in one order (a uniform u for each wait,
    -math.log(1 - u) / total, and one for the pick, the first channel whose
    running rate sum passes u * total), so a replication is bit for bit the
    path that its seed gives alone.
    The arrays of every replication are held to kinetics.NODE_BYTES less
    _SPEC_BYTES, the most a speculative step's arrays add to the whole call
    whatever the replications, as a grid's node arrays are held to
    NODE_BYTES: its counts, node times (built through a copy) and sample
    times, (samples + 1) * (n * m + 3) values, two uniform buffers of
    _ROW_WIDTH and a lockstep step's _CHANNEL_VALUES a channel.  A run past
    it is refused before any seed is listed (a range is counted) or any
    generator is built.  A run whose estimated events pass
    kinetics.MAX_STEPS (each piece's total rate at s0's counts times its
    span, summed, times the replications) is refused too, before any
    generator is built.
    """
    _check_output_grid(T, samples)
    _check_grid(s0, cfg)
    n, m = cfg.n, cfg.m
    pieces = [(a, b, _build_channels(cfg, target, s0.N))   # one channel table per piece
              for a, b, target in control_pieces(u, samples, n, m)]
    single = isinstance(seed, (int, np.integer))
    channels = max(len(table[0]) for _, _, table in pieces)
    check_nodes(1 if single else _count(seed),
                (samples + 1) * (n * m + 3) + 2 * _ROW_WIDTH + _CHANNEL_VALUES * channels,
                "a simulation", NODE_BYTES - _SPEC_BYTES)
    seeds = [int(seed)] if single else [int(s) for s in seed]
    if not seeds:
        raise ValueError("need at least one seed")
    for s in seeds:
        if s < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {s}")
    times = np.linspace(0.0, T, samples + 1)
    c0 = np.append(s0.counts.ravel(), 1.0)   # the partner row n*m holds 1
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow estimates inf or nan
        estimate = len(seeds) * sum(float(coeff @ (c0[src] * c0[partner])) * (times[b] - times[a])
                                    for a, b, (src, _, coeff, partner) in pieces)
    if not estimate <= MAX_STEPS:
        raise ValueError(f"a simulation of an estimated {estimate:.6g} events exceeds the "
                         f"bound of {MAX_STEPS} events")
    paths = _simulate_lockstep(s0, pieces, times, seeds, cfg)
    return paths[0] if single else paths


def _channel_rates(counts: np.ndarray, take: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Each column's channel rates, (coeff * counts[src]) * counts[partner]
    in that order: counts holds a count column per state, the partner row of
    1s last, and take lists every channel's src, then every partner.
    Callers sum the rates in place, in channel order."""
    g = counts.take(take, axis=0)
    rates = g[:len(coeffs)]
    rates *= coeffs
    rates *= g[len(coeffs):]
    return rates


def _depth(expected: float, cap: int) -> int:
    """Events per column in the next lockstep step: 2, doubled while that
    stays at most both the live columns' largest expected events before
    their next node and cap; or 1 when it falls below _SPEC_MIN_K or above
    cap."""
    depth = 2
    while 2 * depth <= min(expected, cap):
        depth *= 2
    return depth if _SPEC_MIN_K <= depth <= cap else 1


def _speculate(c, rates, t, te, at, depth, take, coeffs, moves, flat, comp_flat):
    """Up to `depth` events of every column in one step, each checked after the fact.

    c, rates, t, te and at are the columns' counts, running sums (with
    _simulate_lockstep's sentinel rows 0 and C + 1), times, next node times
    and next uniforms.  Event k of a column reads the uniforms at at + 2k and
    at + 2k + 1.  Its channel is guessed from the current running sums; the
    guesses give depth prefix states, c plus the guessed moves before each
    event, exact because every partial sum is a small integer.  Each state
    gets its exact rates and running sums, as a one-event step forms them,
    and keeps its guess g when sums[g - 1] <= u * tot < sums[g], which is the
    one-event step's first-index rule.  Waits, -math.log(1 - u) / tot,
    accumulate in sequence.  A column's events stand while their guesses
    hold and they stay at or before its node; its first event that fails
    (the last one if none does) is the column's last of the step, and its
    state is exact.

    Returns that event's counts, running sums, time and pick, as the
    one-event step has them, and the count of verified events before it.
    """
    C = len(coeffs) - 2
    R = c.shape[1]
    KR = depth * R
    cols = np.arange(R)
    idx = at + np.arange(2 * depth)[:, None]   # (2 depth, R): wait, pick, wait, pick, ...
    u = flat.take(idx[1::2])
    # one sorted search over every column's running sums over its total, offset by 2r
    key = (rates[1:C + 1] / rates[C] + 2.0 * cols).T.ravel()
    guess = np.searchsorted(key, u + 2.0 * cols, side="right")
    guess -= cols * C - 1
    np.clip(guess, 1, C + 1, out=guess)
    states = np.matmul(np.tri(depth, k=-1), moves.take(guess, axis=1))   # (S + 1, depth, R)
    states += c[:, None]
    states = states.reshape(-1, KR)
    sums = _channel_rates(states, take, coeffs)
    # the running sums, in the one-event step's bits: on depth x R columns a
    # loop down the channels costs less than its np.add.accumulate
    for i in range(1, len(sums)):
        np.add(sums[i - 1], sums[i], out=sums[i])
    tot = sums[C]
    pick = u.ravel() * tot
    at_guess = guess.ravel() * KR + np.arange(KR)
    flat_sums = sums.ravel()
    good = flat_sums.take(at_guess - KR) <= pick
    good &= pick < flat_sums.take(at_guess)
    tn = np.empty((depth + 1, R))
    tn[0] = t
    # math.log of 1 - u, the rule's wait: np.log can differ in the last bit
    logs = np.fromiter(map(math.log, comp_flat.take(idx[::2]).ravel().tolist()), float, KR)
    np.divide(logs.reshape(depth, R), tot.reshape(depth, R), out=tn[1:])
    np.subtract.accumulate(tn, axis=0, out=tn)
    good = good.reshape(depth, R)
    good &= tn[1:] <= te
    good[-1] = False
    ahead = good.argmin(axis=0)
    sel = ahead * R + cols
    return (states.take(sel, axis=1), sums.take(sel, axis=1), tn[1:].ravel().take(sel),
            pick.take(sel), ahead)


# A replication whose total rate is 0 gets a wait of x/0 (inf or nan); it reads
# no uniform and leaves its piece.
@np.errstate(divide="ignore", invalid="ignore")
def _simulate_lockstep(s0: CountState, pieces: list, times: np.ndarray,
                       seeds: List[int], cfg: GameConfig) -> List[SimPath]:
    """Every seed's event loop of `simulate` at once, one column each.

    The output intervals come in pieces (first, end, channel table): runs of
    intervals under one control.  Within a piece, arrays hold one
    column per replication still in it, and each column carries its own
    time, interval and next uniform.  Each step computes every column's
    channel rates (coeff * counts[src] * counts[partner], in channel order)
    and their sequential cumsum, whose entry C is the total; then each
    replication draws its own wait, -math.log(1 - u) / total, and its pick,
    the first channel whose running sum passes u * total.  One
    whose wait passes its interval's end crosses the node: it has read only
    that wait, writes its counts at the node and goes on from the node time,
    without waiting for the others.  One whose total rate is 0 reads nothing,
    fills the piece's remaining nodes with its counts and leaves; so does one
    that crosses the piece's last node.  Replications meet again only where
    a piece starts.

    A step may speculate (_speculate).  At a piece's first step and after a
    speculative step, the loop takes the live columns' largest expected
    events before their next node, tot * (te - t), from the step's rates,
    and _depth makes it the depth of the steps until the next look: a power
    of two of at least _SPEC_MIN_K, capped so that a step's arrays (2C + 2S
    + 20 values per event slot and column, S = n*m, and one depth x depth
    triangle) stay within _SPEC_BYTES whatever the replications; or 1.
    After a look that gives 1, the next comes when the column nearest its
    node may have crossed it, if the busiest column expects _SPEC_MIN_K
    events in an interval, or else with the next refill of a buffer; a call
    with too many replications for _SPEC_MIN_K slots each never looks.  A
    step of depth 1 is the one-event step above and nothing more.  A deeper step
    takes each column's verified events and then its last event of the
    step, the one-event step applied to an exact state.  Either way a column
    reads its uniforms in stream order, a wait's and then a pick's per event,
    and a crossing's wait alone.
    meta["lockstep_steps"] counts the steps, one-event and speculative
    alike; a column's events are the steps it took, less the nodes it
    passed, plus its verified events.

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
    comp = 1.0 - buf                   # 1 - u, the log argument of a wait
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
        span = (last - float(times[j0])) / (j1 - j0)   # the piece's interval width
        # a speculative step holds, per event slot and column, 2C + 4 gathered
        # rates, two prefix states of S + 1 counts and at most 14 more values,
        # and one depth x depth triangle
        slot_bytes = 8 * (2 * C + 2 * S + 20)

        live = reps
        c = cnt.copy()
        t = np.full(R, float(times[j0]))
        node = reps * K + (j0 + 1)       # the row of out at each column's interval end
        te = node_time.take(node)
        at = reps * W + pos              # flat index of each column's next uniform
        steps = guard = 0
        while True:
            steps += 1
            rates = _channel_rates(c, take, coeffs)
            # the running sums: on R columns np.add.accumulate costs less
            # than _speculate's loop down the channels, in the same bits
            np.add.accumulate(rates, axis=0, out=rates)
            tot = rates[C]
            if guard == 0:
                # the depth of the steps until the next look, then a refill of
                # every buffer with fewer than 2 * depth unread uniforms
                cap = min(_SPEC_MAX, (_SPEC_BYTES - 8 * _SPEC_MAX**2) // (slot_bytes * live.size))
                depth, guard = 1, W
                if cap >= _SPEC_MIN_K:
                    expect = tot * (te - t)   # each column's expected events before its node
                    depth = _depth(float(expect.max()), cap)
                    if depth > 1:
                        guard = 1
                    elif float(tot.max()) * span >= _SPEC_MIN_K:
                        # look again once a column may have crossed into an
                        # interval that expects _SPEC_MIN_K events
                        guard = int(expect.min()) + 1
                p = at - live * W
                for i in np.flatnonzero(p > W - 2 * depth).tolist():
                    r = int(live[i])
                    buf[r] = _refill(gens[r], buf[r, p[i]:], W)
                    comp[r] = 1.0 - buf[r]
                    at[i] = r * W
                    p[i] = 0
                guard = min(guard, (W - 2 - int(p.max())) // 2 + 1)
            guard -= 1
            if depth == 1:
                # math.log of 1 - u, the rule's wait: np.log can differ in the last bit
                tn = t - np.array(list(map(ln, comp_flat.take(at).tolist()))) / tot
                pick = picks.take(at) * tot
            else:
                c, rates, tn, pick, ahead = _speculate(c, rates, t, te, at, depth, take,
                                                       coeffs, moves, flat, comp_flat)
                tot = rates[C]
                at += 2 * ahead
                events[live] += ahead
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
                    # each step was an event or a node passed (a stall passes one),
                    # besides a speculative step's verified events
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


def replication_summary(paths: Sequence[SimPath]) -> tuple[np.ndarray, np.ndarray]:
    """Per-node means of the paths' x and their standard errors: the sample
    deviation (ddof 1) over sqrt(R), 0 for one path.  numpy's mean and std of
    the stacked x, bit for bit, in two passes that hold one path's x at a time."""
    R = len(paths)
    mean = paths[0].x
    for p in paths[1:]:
        mean += p.x
    mean /= R
    var = np.zeros_like(mean)
    for p in paths:
        d = p.x
        d -= mean
        var += np.square(d, out=d)
        del d   # before the next path's x is made
    var /= max(R - 1, 1)
    stderr = np.sqrt(var, out=var)
    stderr /= math.sqrt(R)
    return mean, stderr


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
    path's targets over each output interval's integration steps; T and
    samples are checked by simulate's rules first.  Returns replication_summary's
    per-N means and standard errors, and the pooled RMSE with its slope in N.
    """
    if len(N_list) < 2 or any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be strictly increasing with at least two sizes")
    if replications < 2:
        raise ValueError("need at least two replications for standard errors")
    _check_output_grid(T, samples)
    x0a = occupation_array(x0, (cfg.n, cfg.m))
    times = np.linspace(0.0, T, samples + 1)

    per = max(1, int(math.ceil(2000.0 / samples)))
    control_pieces(u, samples, cfg.n, cfg.m)  # a path is checked against samples first
    ref_u = Control(u.starts * per, u.targets, samples * per) if isinstance(u, Control) else u
    traj = integrate_forward(x0a, ref_u, 0.0, T, T / (per * samples), cfg)
    ref = traj.x[::per]

    means = {}
    stderrs = {}
    rmse = np.zeros(len(N_list))
    for k, Nv in enumerate(N_list):
        s0 = CountState.from_occupation(x0a, int(Nv))
        seeds = range(seed + k * replications, seed + (k + 1) * replications)
        mean, stderrs[int(Nv)] = replication_summary(
            simulate(s0, u, T, seeds, cfg, samples=samples))
        means[int(Nv)] = mean
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
