"""Linear stability of the switch-free dynamics around a base occupation.

Total mass is conserved, so one coordinate is redundant: states are flattened
column-by-column (level index fastest) and the last state's coordinate is
eliminated by substitution.  The result is the reduced linearization L of the
kinetic flow at the base point (uniform by default).  Under detailed balance
and with interactions off, L is block diagonal in the behaviour columns up to
a rank-one bottom-row correction from the eliminated coordinate; its spectrum
has one zero per surviving column tangent and negative reals elsewhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BALANCE_TOL, GameConfig, balance_gap, occupation_array
from .stationary import build_level_chain

__all__ = [
    "StabilityError",
    "SpectrumReport",
    "build_reduced_linearization",
    "spectrum",
    "compare_d_block",
    "lift_tangent",
    "reduce_states",
]

ZERO_FACTOR = 1e-8  # |eig| below ZERO_FACTOR * ||L|| counts as zero


class StabilityError(RuntimeError):
    pass


def reduce_states(x) -> np.ndarray:
    """Flatten an (n, m) state matrix to reduced coordinates (drop the last)."""
    return np.asarray(x, dtype=float).flatten(order="F")[:-1]


def lift_tangent(y, n: int, m: int) -> np.ndarray:
    """Inverse of reduce_states on mass-preserving perturbations.

    The eliminated coordinate absorbs minus the total, so the lifted matrix
    sums to zero and can be added to any occupation without changing mass.
    """
    ya = np.asarray(y, dtype=float).reshape(-1)
    if ya.size != n * m - 1:
        raise ValueError(f"tangent vector has length {ya.size}, expected {n * m - 1}")
    full = np.concatenate([ya, [-float(ya.sum())]])
    return full.reshape((n, m), order="F").copy()


def _kinetic_jacobian(x: np.ndarray, cfg: GameConfig) -> np.ndarray:
    """Analytic Jacobian of the switch-free kinetic flow at x (full, nm x nm)."""
    n, m = cfg.n, cfg.m
    size = n * m
    J = np.zeros((size, size))
    for j in range(m):
        J[j * n:(j + 1) * n, j * n:(j + 1) * n] += build_level_chain(j, cfg).A
    d = cfg.delta_int
    if d != 0.0:
        que = cfg.q_up_evo
        qde = cfg.q_down_evo
        s_up = np.einsum("ijk,ik->ij", que, x)
        s_dn = np.einsum("ijk,ik->ij", qde, x)
        for j in range(m):
            for i in range(n):
                row = j * n + i
                for k in range(m):
                    if i > 0:
                        J[row, k * n + i - 1] += d * (
                            que[i - 1, j, k] * x[i - 1, j]
                            + (s_up[i - 1, j] if k == j else 0.0)
                        )
                    if i < n - 1:
                        J[row, k * n + i + 1] += d * (
                            qde[i + 1, j, k] * x[i + 1, j]
                            + (s_dn[i + 1, j] if k == j else 0.0)
                        )
                    J[row, k * n + i] -= d * (
                        (que[i, j, k] + qde[i, j, k]) * x[i, j]
                        + ((s_up[i, j] + s_dn[i, j]) if k == j else 0.0)
                    )
    return J


def build_reduced_linearization(cfg: GameConfig, base=None) -> np.ndarray:
    """Reduced linearization of the switch-free flow at the base occupation.

    Square case only (as many behaviour columns as levels); the pressure rates
    must be detailed-balanced for the spectral classification to apply.  The
    base defaults to the uniform occupation.
    """
    if cfg.n != cfg.m:
        raise StabilityError(
            f"square case required: got n={cfg.n} levels and m={cfg.m} behaviours"
        )
    gap = balance_gap(cfg)[0]
    if not gap <= BALANCE_TOL:
        raise StabilityError(
            f"pressure rates are not detailed-balanced (worst relative link gap {gap:.3e})"
        )
    x = np.full((cfg.n, cfg.m), 1.0 / (cfg.n * cfg.m)) if base is None else (
        occupation_array(base)
    )
    J = _kinetic_jacobian(x, cfg)
    return J[:-1, :-1] - J[:-1, -1][:, None]


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue classification of a reduced linearization.

    eigenvalues are sorted by real part (ascending).  tol_zero is the
    magnitude below which an eigenvalue counts as zero; the zero/negative/
    positive counts partition the spectrum.  geometric_multiplicity_zero is
    the null-space dimension from singular values at the same tolerance.
    """

    eigenvalues: np.ndarray
    zero_count: int
    negative_count: int
    positive_count: int
    geometric_multiplicity_zero: int
    tol_zero: float


def spectrum(L: np.ndarray) -> SpectrumReport:
    La = np.asarray(L, dtype=float)
    if La.size == 0:
        return SpectrumReport(np.zeros(0, dtype=complex), 0, 0, 0, 0, 0.0)
    eigs = np.linalg.eigvals(La)
    svals = np.linalg.svd(La, compute_uv=False)
    tol = ZERO_FACTOR * max(float(svals[0]), np.finfo(float).tiny)
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    zero = np.abs(eigs) <= tol
    neg = (~zero) & (eigs.real < 0.0)
    pos = ~(zero | neg)
    return SpectrumReport(
        eigenvalues=eigs,
        zero_count=int(zero.sum()),
        negative_count=int(neg.sum()),
        positive_count=int(pos.sum()),
        geometric_multiplicity_zero=int(np.sum(svals <= tol)),
        tol_zero=tol,
    )


def compare_d_block(cfg: GameConfig) -> dict:
    """Compare two constructions of the eliminated-coordinate diagonal block.

    The block for the last behaviour column, derived by substituting the
    eliminated coordinate, carries the closing down-rate across its whole
    bottom row.  An alternative construction fills that rate only in the last
    two bottom-row entries; the two agree for n <= 3 and differ for deeper
    hierarchies.  Informational: the derived block is what
    build_reduced_linearization uses.
    """
    if cfg.n != cfg.m:
        raise StabilityError(
            f"square case required: got n={cfg.n} levels and m={cfg.m} behaviours"
        )
    n = cfg.n
    A = build_level_chain(cfg.m - 1, cfg).A
    qd_top = float(cfg.q_down[n - 1, cfg.m - 1]) if n > 1 else 0.0
    derived = A[: n - 1, : n - 1].copy()
    if n > 1:
        derived[n - 2, :] -= qd_top
    variant = A[: n - 1, : n - 1].copy()
    if n > 1:
        variant[n - 2, :] = 0.0
        if n >= 3:
            variant[n - 2, n - 3] = float(cfg.q_up[n - 3, cfg.m - 1]) - qd_top
        variant[n - 2, n - 2] = (
            -float(cfg.q_up[n - 2, cfg.m - 1])
            - float(cfg.q_down[n - 2, cfg.m - 1])
            - qd_top
        )
    diff = float(np.max(np.abs(derived - variant))) if derived.size else 0.0
    return {
        "derived": derived,
        "variant": variant,
        "max_abs_diff": diff,
        "agree": diff <= 1e-12,
    }
