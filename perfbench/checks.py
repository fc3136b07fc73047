"""Output checks, run after timing.  Each returns a list of problems.

Every check compares an operation's artifacts with the independent oracle
or with a property the method must have; none compares with a stored copy
of earlier output.  The tolerances and their reasons are listed in README.md.
"""
from __future__ import annotations

import copy
import json
import math
import os

import numpy as np

import oracle as O

MASS_TOL = 1e-10       # unit mass, nonnegativity, column-mass drift
PATH_TOL = 1e-10       # x.csv against the oracle's forward integration
# g.csv against the oracle's backward integration, relative to max |g|.  The
# example solve stops while its damped occupation still differs from x.csv
# (damping 2.4e-7, true residual 3.2e-2), which leaves a 8.7e-7 relative gap.
G_TOL_REL = 1e-5
TIE_TOL = 1e-9         # switch gains this close count as ties (relative to max |g|)
FAMILY_ALPHA = 1e-6    # family-wise level of the simulation mean test, per operation
SQRT_N_RATIO = (2.5, 4.0)   # per-replication spread, N=1e3 over N=1e4 (sqrt(10) = 3.16)
SLOPE_RANGE = (1.8, 2.2)    # stationary payoff residual against delta
EIG_TOL = 1e-7         # stability eigenvalues against the oracle, relative to max |eig|
FORWARD_SUBSTEPS = 50  # oracle RK4 steps per simulation sample interval


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _model(op):
    return O.Model.load(op.info["config"])


def _control_steps(ctl: dict, times: np.ndarray, model: O.Model) -> np.ndarray:
    """Per-step 0/1 tensors from controls.json's change points."""
    u = np.zeros((ctl["steps"], model.n, model.m, model.m))
    points = ctl["change_points"]
    for a, cp in enumerate(points):
        k0 = int(np.searchsorted(times, cp["t"]))
        k1 = int(np.searchsorted(times, points[a + 1]["t"])) if a + 1 < len(points) else len(u)
        for i, j, k in cp["active"]:
            u[k0:k1, i - 1, j - 1, k - 1] = 1.0
    return u


def _occupation_problems(xs: np.ndarray) -> list:
    p = []
    if xs.min() < -MASS_TOL:
        p.append(f"negative occupation {xs.min():.3e}")
    drift = float(np.abs(xs.sum(axis=1) - 1.0).max())
    if drift > MASS_TOL:
        p.append(f"mass drift {drift:.3e}")
    return p


def _solve_common(d):
    """Problems shared by every solve, plus the loaded paths."""
    p = []
    solve = _json(os.path.join(d, "solve.json"))
    if not solve["converged"]:
        p.append("solve.json says not converged")
    X = _csv(os.path.join(d, "x.csv"))
    G = _csv(os.path.join(d, "g.csv"))
    if not np.array_equal(X[:, 0], G[:, 0]):
        p.append("x.csv and g.csv have different time grids")
    xs, gs = X[:, 1:], G[:, 1:]
    p += _occupation_problems(xs)
    if np.any(gs[-1] != 0.0):
        p.append("g(T) differs from the zero terminal payoff")
    return p, solve, X[:, 0], xs, gs


def check_solve_example(op, d, ctx):
    model = _model(op)
    p, solve, times, xs, gs = _solve_common(d)
    gen = O.Generator(model)
    T, n_steps = float(times[-1]), len(times) - 1
    if np.any(xs[0] != 1.0 / model.size):
        p.append("x(0) is not the uniform occupation")
    ctl = _json(os.path.join(d, "controls.json"))
    if ctl["steps"] != n_steps:
        p.append(f"controls.json has {ctl['steps']} steps, grid has {n_steps}")
        return p
    u = _control_steps(ctl, times, model)

    x_or = O.integrate_forward(gen, xs[0], T, n_steps, u)
    dev = float(np.abs(x_or - xs).max())
    if dev > PATH_TOL:
        p.append(f"x.csv differs from the oracle forward path by {dev:.3e}")

    g_nodes = gs[:-1].reshape(-1, model.n, model.m)
    gains = O.switch_gains(g_nodes, model)
    top2 = -np.sort(-gains, axis=-1)[..., :2]
    tie = TIE_TOL * max(1.0, float(np.abs(gs).max()))
    near = (np.abs(top2[..., 0]) <= tie) | (top2[..., 0] - top2[..., 1] <= tie)
    differs = np.any(O.best_response(g_nodes, model) != u, axis=-1) & ~near
    if differs.any():
        p.append(f"{int(differs.sum())} control cells differ from the best response to g.csv")

    g_or = O.integrate_backward(gen, np.zeros(model.size), xs, T)
    rel = float(np.abs(g_or - gs).max()) / max(1.0, float(np.abs(gs).max()))
    if rel > G_TOL_REL:
        p.append(f"g.csv differs from the oracle backward path by {rel:.3e} (relative)")
    return p


def check_solve_stayput(op, d, ctx):
    model = _model(op)
    p, solve, times, xs, gs = _solve_common(d)
    if solve["iterations"] != 1:
        p.append(f"{solve['iterations']} sweeps, expected 1")
    ctl = _json(os.path.join(d, "controls.json"))
    if any(cp["active"] for cp in ctl["change_points"]):
        p.append("a switch control was set")
    worst = float(O.switch_gains(gs.reshape(-1, model.n, model.m), model).max())
    if not worst < 0.0:
        p.append(f"switch gain {worst:.3e} is not below zero")
    cols = xs.reshape(-1, model.n, model.m).sum(axis=1)
    drift = float(np.abs(cols - cols[0]).max())
    if drift > MASS_TOL:
        p.append(f"column mass drifts by {drift:.3e}")
    x_or = O.integrate_forward(O.Generator(model), xs[0], float(times[-1]), len(times) - 1)
    dev = float(np.abs(x_or - xs).max())
    if dev > PATH_TOL:
        p.append(f"x.csv differs from the oracle forward path by {dev:.3e}")
    return p


def t_quantile(df: int, tail: float) -> float:
    """t such that P(T > t) = tail for Student's t with df degrees of freedom."""
    logc = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
            - 0.5 * math.log(df * math.pi))
    y = np.linspace(-12.0, 14.0, 20001)   # x = exp(y), 6e-6 .. 1.2e6

    def sf(t):
        x = np.exp(np.concatenate(([math.log(t)], y[y > math.log(t)])))
        f = np.exp(logc - (df + 1) / 2 * np.log1p(x * x / df)) * x
        return float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(np.log(x))))

    lo, hi = 0.1, 1e5
    for _ in range(100):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if sf(mid) > tail else (lo, mid)
    return hi


def _aggregate(d, model):
    A = _csv(os.path.join(d, "aggregate.csv"))
    S = model.size
    return A[:, 0], A[:, 1:1 + S], A[:, 1 + S:1 + 2 * S]


def replication_spread(d, op) -> float:
    """RMS over cells and samples t > 0 of the per-replication standard deviation."""
    _, _, se = _aggregate(d, _model(op))
    return float(np.sqrt(np.mean((se[1:] * math.sqrt(op.info["reps"])) ** 2)))


def check_simulate(op, d, ctx):
    model = _model(op)
    N, reps, T, samples = (op.info[k] for k in ("N", "reps", "T", "samples"))
    times, mean, se = _aggregate(d, model)
    p = []
    if not np.allclose(times, np.linspace(0.0, T, samples + 1), rtol=0, atol=1e-12):
        p.append("aggregate.csv sample times are not the uniform grid")
    total = mean * N * reps   # summed counts over the replications
    whole = np.round(total)
    if float(np.abs(total - whole).max()) > 1e-6:
        p.append("means are not whole counts over N and the replications")
    if np.any(whole.sum(axis=1) != N * reps):
        p.append("counts do not sum to N in every sample")
    c0 = O.rounded_counts(np.full(model.size, 1.0 / model.size), N)
    if np.any(whole[0] != c0 * reps):
        p.append("initial counts are not the rounded uniform occupation")

    steps = samples * FORWARD_SUBSTEPS
    ref = O.integrate_forward(O.Generator(model), c0 / N, T, steps)[::FORWARD_SUBSTEPS]
    comparisons = samples * model.size
    bound = t_quantile(reps - 1, FAMILY_ALPHA / (2 * comparisons))
    z = np.abs(mean[1:] - ref[1:]) / np.maximum(se[1:], 1e-300)
    if float(z.max()) > bound:
        p.append(f"a mean lies {z.max():.2f} standard errors from the kinetic path "
                 f"(bound {bound:.2f})")

    small = op.info.get("compare_with")
    if small is not None:
        small_op, small_dir = ctx[small]
        ratio = replication_spread(small_dir, small_op) / replication_spread(d, op)
        expect = math.sqrt(N / small_op.info["N"])
        lo, hi = SQRT_N_RATIO
        if not lo <= ratio <= hi:
            p.append(f"spread ratio {ratio:.3f} between N={small_op.info['N']} and N={N} "
                     f"is off the 1/sqrt(N) rate ({expect:.3f})")
    return p


def _sweep_models(op):
    with open(op.info["config"], encoding="utf-8") as fh:
        base = json.load(fh)
    models = []
    for delta in op.info["deltas"]:
        doc = copy.deepcopy(base)
        doc["scales"]["delta"] = delta
        models.append(O.Model(doc))
    return models


def _sweep_status(d, count):
    sweep = _json(os.path.join(d, "sweep.json"))
    bad = [r["dir"] for r in sweep["results"] if r["status"] != 0]
    p = [f"sweep runs failed: {bad}"] if bad else []
    if len(sweep["results"]) != count:
        p.append(f"sweep has {len(sweep['results'])} runs, expected {count}")
    return p, [os.path.join(d, r["dir"]) for r in sweep["results"]]


def check_sweep_stationary(op, d, ctx):
    models = _sweep_models(op)
    p, dirs = _sweep_status(d, len(models))
    if p:
        return p
    residuals = []
    for model, sub in zip(models, dirs):
        st = _json(os.path.join(sub, "stationary.json"))
        b = int(np.argmax((model.w - model.q_down * model.fee_H[:, None]).sum(axis=0))) + 1
        if st["b"] != b:
            p.append(f"{sub}: dominant column {st['b']}, oracle says {b}")
        x_star = _csv(os.path.join(sub, "x_star.csv"))[0, 1:]
        if abs(float(x_star.sum()) - 1.0) > MASS_TOL:
            p.append(f"{sub}: x_star mass {x_star.sum()!r}")
        g = np.asarray(st["g"], dtype=float).reshape(-1)
        residuals.append(float(np.abs(O.Generator(model).payoff(g, x_star)).max()))
    deltas = np.asarray(op.info["deltas"])
    slope = float(np.polyfit(np.log(deltas), np.log(residuals), 1)[0])
    lo, hi = SLOPE_RANGE
    if not lo <= slope <= hi:
        p.append(f"payoff residual scales like delta^{slope:.3f}, expected delta^2")
    return p


def _unmatched(a: np.ndarray, b: np.ndarray, tol: float) -> int:
    """How many of a have no partner within tol in b (greedy nearest match)."""
    left = list(b)
    missing = 0
    for v in a:
        if not left:
            missing += 1
            continue
        dist = [abs(v - w) for w in left]
        k = int(np.argmin(dist))
        if dist[k] > tol:
            missing += 1
        else:
            left.pop(k)
    return missing


def check_sweep_stability(op, d, ctx):
    models = _sweep_models(op)
    p, dirs = _sweep_status(d, len(models))
    for model, sub in zip(models, dirs):
        if p:
            break
        st = _json(os.path.join(sub, "stability.json"))
        eig = np.array([complex(re, im) for re, im in st["eigenvalues"]])
        L = O.reduced_jacobian(O.Generator(model), np.full(model.size, 1.0 / model.size))
        eig_or = np.linalg.eigvals(L)
        tol = EIG_TOL * max(1.0, float(np.abs(eig_or).max()))
        if len(eig) != len(eig_or) or _unmatched(eig, eig_or, tol):
            p.append(f"{sub}: eigenvalues differ from the oracle Jacobian's")
        counts = (st["zero_count"], st["negative_count"], st["positive_count"])
        expect = O.classify(eig_or, L)
        if counts != expect or expect != (model.m - 1, model.size - model.m, 0):
            p.append(f"{sub}: counts {counts}, oracle {expect}, "
                     f"expected ({model.m - 1}, {model.size - model.m}, 0)")
    return p


CHECKS = {
    "solve_example": check_solve_example,
    "solve_stayput": check_solve_stayput,
    "simulate": check_simulate,
    "sweep_stationary": check_sweep_stationary,
    "sweep_stability": check_sweep_stability,
}
