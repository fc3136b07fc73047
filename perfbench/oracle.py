"""Reference model for checking hbmfg outputs, written apart from the package.

The whole model is one jump process on the (level, behaviour) grid.  Every
move is an edge (source, destination, coefficient, partner cell, cost): an
agent at the source jumps at rate coefficient * x[partner] (or just the
coefficient when there is no partner) and pays the cost when it does.

- pressure: one level up at q_up, one level down at q_down (or straight to
  the lowest level at q_sink.direct in the sink variant);
- stimulated: the same moves at delta_int * evo[i, j, k] per unit of mass in
  the same-level partner cell (i, k);
- switching: (i, j) -> (i, k) at lam * u[i, j, k], paying fee_B[j, k].

Every downward move pays the fine fee_H of the level it leaves.  The forward
rhs is the flux balance of these edges; the payoff rhs is the adjoint of the
same generator with the costs subtracted.  Nothing here imports hbmfg: the
config is read straight from its JSON document.
"""
from __future__ import annotations

import json

import numpy as np

# A switch is taken only when it beats staying by more than this.
SWITCH_TOL = 1e-12


def regime_scales(regime: str, delta: float) -> tuple[float, float]:
    """(delta_int, delta_dis) of a named regime at base scale delta."""
    if regime == "id1":
        return delta * delta, delta
    if regime == "id2":
        return delta, delta
    if regime == "id3":
        return delta, delta * delta
    raise ValueError(f"unknown regime {regime!r}")


class Model:
    """The numbers of one config document, as float arrays."""

    def __init__(self, doc: dict):
        self.n = int(doc["dimensions"]["n"])
        self.m = int(doc["dimensions"]["m"])
        rates, econ, scales = doc["rates"], doc["economics"], doc["scales"]
        arr = lambda v: np.array(v, dtype=float)
        self.q_up = arr(rates["q_up"])
        self.q_down = arr(rates["q_down"])
        self.q_up_evo = arr(rates["q_up_evo"])
        self.q_down_evo = arr(rates["q_down_evo"])
        sink = rates.get("q_sink")
        self.sink_direct = None if sink is None else arr(sink["direct"])
        self.sink_interaction = None if sink is None else arr(sink["interaction"])
        self.w = arr(econ["w"])
        self.fee_B = arr(econ["fee_B"])
        self.fee_H = arr(econ["fee_H"])
        self.lam = float(scales["lambda"])
        self.delta = float(scales["delta"])
        d_int, d_dis = regime_scales(str(scales["regime"]).lower(), self.delta)
        self.delta_int = float(scales.get("delta_int", d_int))
        self.delta_dis = float(scales.get("delta_dis", d_dis))

    @classmethod
    def load(cls, path) -> "Model":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    @property
    def size(self) -> int:
        return self.n * self.m

    def cell(self, i: int, j: int) -> int:
        return i * self.m + j


class Generator:
    """Edge table of the jump process, built by explicit loops over moves."""

    def __init__(self, model: Model):
        self.model = model
        n, m, d = model.n, model.m, model.delta_int
        cell = model.cell
        src, dst, coef, partner, cost = [], [], [], [], []

        def edge(s, t, c, p, f):
            if c != 0.0:
                src.append(s)
                dst.append(t)
                coef.append(c)
                partner.append(p)
                cost.append(f)

        for i in range(n):
            for j in range(m):
                s = cell(i, j)
                if i + 1 < n:
                    edge(s, cell(i + 1, j), model.q_up[i, j], -1, 0.0)
                    for k in range(m):
                        edge(s, cell(i + 1, j), d * model.q_up_evo[i, j, k], cell(i, k), 0.0)
                if i > 0:
                    fine = model.fee_H[i]
                    if model.sink_direct is None:
                        edge(s, cell(i - 1, j), model.q_down[i, j], -1, fine)
                        for k in range(m):
                            edge(s, cell(i - 1, j), d * model.q_down_evo[i, j, k],
                                 cell(i, k), fine)
                    else:
                        edge(s, cell(0, j), model.sink_direct[i, j], -1, fine)
                        for k in range(m):
                            edge(s, cell(0, j), d * model.sink_interaction[i, j, k],
                                 cell(i, k), fine)
        self.src = np.array(src, dtype=np.intp)
        self.dst = np.array(dst, dtype=np.intp)
        self.coef = np.array(coef, dtype=float)
        self.cost = np.array(cost, dtype=float)
        partner = np.array(partner, dtype=np.intp)
        self.paired = partner >= 0
        self.partner = partner[self.paired]

        sw_src, sw_dst, sw_cost, sw_slot = [], [], [], []
        for i in range(n):
            for j in range(m):
                for k in range(m):
                    if k != j:
                        sw_src.append(cell(i, j))
                        sw_dst.append(cell(i, k))
                        sw_cost.append(model.fee_B[j, k])
                        sw_slot.append((i * m + j) * m + k)
        self.sw_src = np.array(sw_src, dtype=np.intp)
        self.sw_dst = np.array(sw_dst, dtype=np.intp)
        self.sw_cost = np.array(sw_cost, dtype=float)
        self.sw_slot = np.array(sw_slot, dtype=np.intp)

    def edges(self, x: np.ndarray, u):
        """(src, dst, rate, cost) of every edge at flat occupation x, control u."""
        rate = self.coef.copy()
        rate[self.paired] *= x[self.partner]
        if u is None:
            return self.src, self.dst, rate, self.cost
        sw_rate = self.model.lam * np.asarray(u, dtype=float).reshape(-1)[self.sw_slot]
        return (np.concatenate([self.src, self.sw_src]),
                np.concatenate([self.dst, self.sw_dst]),
                np.concatenate([rate, sw_rate]),
                np.concatenate([self.cost, self.sw_cost]))

    def forward(self, x: np.ndarray, u=None) -> np.ndarray:
        """dx/dt at flat occupation x: inflow minus outflow along every edge."""
        src, dst, rate, _ = self.edges(x, u)
        flux = rate * x[src]
        size = self.model.size
        return np.bincount(dst, flux, size) - np.bincount(src, flux, size)

    def apply(self, g: np.ndarray, x: np.ndarray, u=None) -> np.ndarray:
        """(L g)[s] = sum over edges out of s of rate * (g[dst] - g[s]); no costs."""
        src, dst, rate, _ = self.edges(x, u)
        return np.bincount(src, rate * (g[dst] - g[src]), self.model.size)

    def payoff(self, g: np.ndarray, x: np.ndarray, u=None) -> np.ndarray:
        """dg/dt of the discounted payoff: delta_dis g - w - L g + expected costs."""
        src, dst, rate, cost = self.edges(x, u)
        gain = np.bincount(src, rate * (g[dst] - g[src] - cost), self.model.size)
        return self.model.delta_dis * g - self.model.w.reshape(-1) - gain


def best_response(g: np.ndarray, model: Model) -> np.ndarray:
    """0/1 switch tensor u[..., i, j, k] for payoffs g[..., i, j].

    An agent at (i, j) switches to the k of largest gain g[i,k] - g[i,j] -
    fee_B[j,k], the lowest k on exact ties, only if that gain exceeds 1e-12.
    """
    gains = switch_gains(g, model)
    best = np.argmax(gains, axis=-1)
    take = np.take_along_axis(gains, best[..., None], axis=-1)[..., 0] > SWITCH_TOL
    u = np.zeros(gains.shape)
    np.put_along_axis(u, best[..., None], take[..., None].astype(float), axis=-1)
    return u


def switch_gains(g: np.ndarray, model: Model) -> np.ndarray:
    """gains[..., i, j, k] of moving j -> k at level i; -inf on the diagonal."""
    g = np.asarray(g, dtype=float)
    gains = g[..., :, None, :] - g[..., :, :, None] - model.fee_B
    k = np.arange(model.m)
    gains[..., k, k] = -np.inf
    return gains


def rk4(f, y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_forward(gen: Generator, x0, T: float, n_steps: int, controls=None):
    """Occupation at the n_steps + 1 grid nodes, control held per step.

    controls: None (nobody switches) or a sequence of per-step (n, m, m)
    tensors.
    """
    h = T / n_steps
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    out = np.empty((n_steps + 1, x.size))
    out[0] = x
    for k in range(n_steps):
        u = None if controls is None else controls[k]
        x = rk4(lambda y: gen.forward(y, u), x, h)
        out[k + 1] = x
    return out


def integrate_backward(gen: Generator, gT, xs: np.ndarray, T: float):
    """Payoff at the grid nodes from g(T) = gT, best response at every stage.

    xs holds the occupation at the nodes; each step sees it frozen at the
    step's midpoint, the average of the step's two end nodes.
    """
    model = gen.model
    n_steps = len(xs) - 1
    h = T / n_steps
    shape = (model.n, model.m)

    def f(y, x):
        u = best_response(y.reshape(shape), model)
        return -gen.payoff(y, x, u)

    g = np.asarray(gT, dtype=float).reshape(-1).copy()
    out = np.empty((n_steps + 1, g.size))
    out[n_steps] = g
    for k in range(n_steps, 0, -1):
        x_mid = 0.5 * (xs[k - 1] + xs[k])
        g = rk4(lambda y: f(y, x_mid), g, h)
        out[k - 1] = g
    return out


def rounded_counts(x: np.ndarray, N: int) -> np.ndarray:
    """Largest-remainder rounding of N * x to integers summing to N.

    The leftover units go to the largest remainders, the lower flat index
    first among equal ones.
    """
    target = np.asarray(x, dtype=float).reshape(-1) * N
    counts = np.floor(target)
    rem = target - counts
    order = sorted(range(rem.size), key=lambda c: (-rem[c], c))
    for c in order[: int(round(N - counts.sum()))]:
        counts[c] += 1.0
    return counts.astype(np.int64)


def reduced_jacobian(gen: Generator, x: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Central-difference Jacobian of the switch-free forward rhs at x,
    restricted to mass-preserving perturbations by eliminating the last cell.

    The rhs is quadratic in x, so central differences are exact up to
    rounding.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    size = x.size
    J = np.empty((size, size))
    for c in range(size):
        e = np.zeros(size)
        e[c] = step
        J[:, c] = (gen.forward(x + e) - gen.forward(x - e)) / (2.0 * step)
    return J[:-1, :-1] - J[:-1, -1][:, None]


def classify(eigs: np.ndarray, L: np.ndarray) -> tuple[int, int, int]:
    """(zero, negative, positive) counts; zero means |eig| <= 1e-8 * ||L||_2."""
    tol = 1e-8 * float(np.linalg.norm(L, 2))
    zero = np.abs(eigs) <= tol
    neg = ~zero & (eigs.real < 0.0)
    return int(zero.sum()), int(neg.sum()), int((~zero & ~neg).sum())
