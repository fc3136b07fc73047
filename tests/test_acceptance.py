"""End-to-end acceptance checks for the whole package.

Each test covers one headline property at desk scale and prints a single
`ACCEPTANCE NN name: PASS|FAIL` line (visible with `pytest -s`).  All
randomness is seeded; the suite is deterministic.  The slowest checks are
08 (turnpike), 07 (cone invariance) and 09 (mean-field limit), a few
seconds each.
"""
from __future__ import annotations

import subprocess
import sys
from dataclasses import replace

import numpy as np

from hbmfg.hjb import hjb_rhs, integrate_backward
from hbmfg.kinetics import integrate_forward, kinetic_rhs
from hbmfg.model import Occupation, Regime, effective_rewards
from hbmfg.simulator import convergence_study
from hbmfg.solver import default_dt, default_horizon, solve_mfg, turnpike_metrics
from hbmfg.stability import (
    build_reduced_linearization,
    lift_tangent,
    reduce_states,
    spectrum,
)
from hbmfg.stationary import (
    build_level_chain,
    kernel_product_forms,
    solve_on_complement,
    stationary_solution,
)

from util_configs import evo_tensors, make_config, theorem_config, write_config


def _check(failures: list, ok: bool, msg: str) -> None:
    if not ok:
        failures.append(msg)


def _verdict(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}")
    assert not failures, f"{name}: " + "; ".join(failures)


def _simplex(rng, n: int, m: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n * m)).reshape(n, m)


def test_01_stationary_closed_form():
    # uniform mass on the dominant column, leading payoff = column mean / discount,
    # and no occupied state wants to switch
    failures = []
    rng = np.random.default_rng(101)
    dims = [2, 3, 4]
    for c in range(20):
        n = m = dims[c % 3]
        cfg = make_config(n, m, rng, db=True, balanced_evo=True, gap=1.0,
                          delta=0.004, fee_switch=0.5, fine=0.2)
        sol = stationary_solution(cfg)
        xs = sol.x_corrected
        on_b = xs[:, sol.b]
        off_b = np.delete(xs, sol.b, axis=1)
        _check(failures, bool(np.all(on_b == 1.0 / n) and np.all(off_b == 0.0)),
               f"case {c}: occupation is not exactly uniform on the lead column")
        w_eff = effective_rewards(cfg)
        lead = w_eff[:, sol.b].sum() / (n * cfg.delta_dis)
        err = float(np.max(np.abs(sol.g0[:, sol.b] / cfg.delta_dis - lead)))
        _check(failures, err <= 1e-12 * max(1.0, abs(lead)),
               f"case {c}: leading payoff term off by {err:.3e}")
        _check(failures, sol.margin <= 0.0,
               f"case {c}: switching margin {sol.margin:.3e} > 0")
    _verdict(1, "stationary-closed-form", failures)


def test_02_kernel_product_forms():
    # the two closed-form kernel constructions agree and annihilate the chain matrix,
    # detailed balance not assumed
    failures = []
    rng = np.random.default_rng(202)
    for c in range(25):
        n = int(rng.integers(2, 7))
        cfg = make_config(n, 2, rng, db=False, with_evo=False)
        for j in range(2):
            chain = build_level_chain(j, cfg)
            v1, v2 = kernel_product_forms(chain)
            gap = float(np.max(np.abs(v1 - v2)))
            _check(failures, gap <= 1e-12,
                   f"case {c}.{j}: product forms disagree by {gap:.3e}")
            scale = max(1.0, float(np.abs(chain.A).max()))
            res = float(np.max(np.abs(chain.A @ v1)))
            _check(failures, res <= 1e-12 * scale,
                   f"case {c}.{j}: kernel residual {res:.3e}")
    _verdict(2, "kernel-product-forms", failures)


def test_03_complement_solver():
    # mean-zero restricted solves keep the sign convention A z = -y and match
    # a dense least-squares reference
    failures = []
    rng = np.random.default_rng(303)
    for c in range(100):
        n = int(rng.integers(2, 9))
        cfg = make_config(n, 2, rng, db=True, with_evo=False)
        chain = build_level_chain(c % 2, cfg)
        y = rng.normal(size=n)
        y -= y.mean()
        z = solve_on_complement(chain, y)
        zscale = max(1.0, float(np.abs(z).max()))
        _check(failures, abs(float(z.mean())) <= 1e-12 * zscale,
               f"case {c}: output mean {float(z.mean()):.3e}")
        res = float(np.max(np.abs(chain.A @ z + y)))
        _check(failures, res <= 1e-10 * max(1.0, float(np.abs(y).max())),
               f"case {c}: A z = -y fails by {res:.3e}")
        z_ls, *_ = np.linalg.lstsq(chain.A, -y, rcond=None)
        z_ls -= z_ls.mean()
        err = float(np.max(np.abs(z - z_ls)))
        _check(failures, err <= 1e-10 * max(1.0, float(np.abs(z_ls).max())),
               f"case {c}: disagrees with dense solve by {err:.3e}")
    _verdict(3, "complement-solver", failures)


def _spectral_configs():
    rng = np.random.default_rng(404)
    return [make_config(3, 3, rng, db=True, balanced_evo=True, delta=0.05)
            for _ in range(10)]


def test_04_spectral_counts():
    # at the stationary point the reduced linearization has exactly n-1 zero
    # modes (conserved column masses), the rest strictly stable
    failures = []
    for c, cfg in enumerate(_spectral_configs()):
        base = stationary_solution(cfg).x0.x
        L = build_reduced_linearization(cfg, base=base)
        rep = spectrum(L)
        counts = (rep.zero_count, rep.negative_count, rep.positive_count)
        _check(failures, counts == (2, 6, 0), f"case {c}: counts {counts}")
        _check(failures, rep.geometric_multiplicity_zero == 2,
               f"case {c}: null-space dimension {rep.geometric_multiplicity_zero}")
    _verdict(4, "spectral-counts", failures)


def test_05_linearization_consistency():
    # the analytic reduced matrix is the true Jacobian: residual after removing
    # the linear part shrinks quadratically in the perturbation size
    failures = []
    rng = np.random.default_rng(505)
    eps_list = (1e-3, 5e-4, 2.5e-4)
    for c, cfg in enumerate(_spectral_configs()):
        base = stationary_solution(cfg).x0.x
        L = build_reduced_linearization(cfg, base=base)
        y = lift_tangent(rng.normal(size=L.shape[0]), cfg.n, cfg.m)
        y /= float(np.abs(y).max())
        pred = lift_tangent(L @ reduce_states(y), cfg.n, cfg.m)
        r0 = kinetic_rhs(base, None, cfg)
        errs = [float(np.max(np.abs(kinetic_rhs(base + e * y, None, cfg)
                                    - r0 - e * pred)))
                for e in eps_list]
        if max(errs) <= 1e-13:
            continue  # quadratic term annihilated this direction
        orders = [float(np.log2(errs[k] / errs[k + 1])) for k in range(2)]
        _check(failures, min(orders) >= 1.9, f"case {c}: observed orders {orders}")
    _verdict(5, "linearization-consistency", failures)


def test_06_expansion_residual_scaling():
    # plugging the assembled expansion back into the stationary equations leaves
    # residuals that scale quadratically (in the discount for the payoff, in the
    # interaction scale for the occupation)
    failures = []
    rng = np.random.default_rng(606)
    base_cfg = make_config(3, 3, rng, db=True, balanced_evo=False, delta=0.1,
                           regime=Regime.ID1, fine=0.2)
    deltas = [0.1, 0.05, 0.025]
    res_g, res_x, dints = [], [], []
    for d in deltas:
        cfg = replace(base_cfg, delta=d)
        sol = stationary_solution(cfg)
        xs = sol.x_corrected
        res_g.append(float(np.max(np.abs(hjb_rhs(sol.g, xs, None, cfg)))))
        res_x.append(float(np.max(np.abs(kinetic_rhs(xs, None, cfg)))))
        dints.append(cfg.delta_int)
    slope_g = float(np.polyfit(np.log10(deltas), np.log10(res_g), 1)[0])
    slope_x = float(np.polyfit(np.log10(dints), np.log10(res_x), 1)[0])
    _check(failures, 1.7 <= slope_g <= 2.3,
           f"payoff residual slope {slope_g:.3f}, residuals {res_g}")
    _check(failures, 1.7 <= slope_x <= 2.3,
           f"occupation residual slope {slope_x:.3f}, residuals {res_x}")
    _verdict(6, "expansion-residual-scaling", failures)


def test_07_cone_invariance():
    # with ordered rates and switch fees sized to the reward scale, nobody ever
    # switches: the solver converges immediately to the stay-put control and the
    # payoff stays inside the no-switch cone for the whole horizon
    failures = []
    rng = np.random.default_rng(707)
    for c in range(10):
        n = m = 2 + (c % 2)
        cfg = theorem_config(n, m, rng, delta=0.05)
        res = solve_mfg(Occupation.uniform(n, m).x, np.zeros((n, m)),
                        default_horizon(cfg), default_dt(cfg), cfg)
        _check(failures, res.converged and res.iterations == 1,
               f"case {c}: converged={res.converged} iterations={res.iterations}")
        _check(failures, np.all(res.trajectory.u.targets == np.arange(m)),
               f"case {c}: control switched somewhere")
        worst = res.meta["cone_worst"]
        _check(failures, worst <= 0.0, f"case {c}: cone_worst {worst:.3e}")
    _verdict(7, "cone-invariance", failures)


def test_08_turnpike():
    failures = []
    rng = np.random.default_rng(808)

    # (a) distance to the leading-order point over the middle of the horizon
    # shrinks ~4x when delta is halved (the first correction scales with the
    # interaction strength; generic tensors keep it nonzero)
    thm = theorem_config(3, 3, rng, delta=0.05)
    que, qde = evo_tensors(3, 3, rng, balanced=False)
    sups = []
    for d in (0.05, 0.025):
        cfg = replace(thm, q_up_evo=que, q_down_evo=qde, delta=d)
        sol = stationary_solution(cfg)
        res = solve_mfg(sol.x0.x, np.zeros((3, 3)),
                        default_horizon(cfg), default_dt(cfg), cfg)
        _check(failures, res.converged, f"delta={d}: solve did not converge")
        sups.append(turnpike_metrics(res, cfg).sup_middle)
    _check(failures, sups[1] < sups[0] and sups[0] > 1.5 * sups[1],
           f"middle-horizon gaps {sups} did not shrink with delta")

    # (b) with interaction off, the gap to the column-mass-matched fixed point
    # decays monotonically from any start
    cfgb = theorem_config(3, 3, rng, with_evo=False)
    peak = float((cfgb.q_up + cfgb.q_down).max())
    dt = min(default_dt(cfgb), 0.25 / peak)
    T = 2.0 * default_horizon(cfgb)
    for c in range(5):
        x0 = _simplex(rng, 3, 3)
        res = solve_mfg(x0, np.zeros((3, 3)), T, dt, cfgb)
        _check(failures, res.converged, f"start {c}: solve did not converge")
        target = np.tile(x0.sum(axis=0) / 3.0, (3, 1))
        d = np.max(np.abs(res.trajectory.x - target), axis=(1, 2))
        _check(failures, bool(np.all(np.diff(d) <= 1e-10)),
               f"start {c}: distance to the fixed point is not monotone")
        _check(failures, d[-1] <= 1e-8, f"start {c}: final gap {d[-1]:.3e}")
    _verdict(8, "turnpike-decay", failures)


def test_09_mean_field_limit():
    # finite-population paths approach the kinetic solution like 1/sqrt(N)
    failures = []
    rng = np.random.default_rng(909)
    cfg = make_config(2, 2, rng, db=True, balanced_evo=True, delta=0.05,
                      regime=Regime.ID2)
    study = convergence_study(cfg, None, np.full((2, 2), 0.25), T=1.5,
                              N_list=[100, 1000, 10000], replications=200,
                              seed=9090, samples=10)
    _check(failures, bool(np.all(np.diff(study.rmse) < 0.0)),
           f"rmse not strictly decreasing: {study.rmse.tolist()}")
    _check(failures, -0.7 <= study.slope <= -0.3, f"slope {study.slope:.3f}")
    zmax = 0.0
    for Nv in study.N_values:
        err = np.abs(study.means[Nv][1:] - study.reference[1:])
        se = np.maximum(study.stderrs[Nv][1:], 1e-300)
        zmax = max(zmax, float((err / se).max()))
    _check(failures, zmax <= 3.0, f"worst mean deviation {zmax:.2f} standard errors")
    _verdict(9, "mean-field-limit", failures)


def test_10_integrator_order():
    # both integrators self-converge at 4th order under step halving
    failures = []
    rng = np.random.default_rng(1010)
    cfg = make_config(3, 3, rng, db=False, balanced_evo=False, delta=0.3,
                      regime=Regime.ID2)
    u = np.array([[1, 1, 2], [0, 1, 2], [0, 1, 0]])  # (1,1)->(1,2), (3,3)->(3,1)
    T = 2.0
    x0 = _simplex(rng, 3, 3)
    xs = {dt: integrate_forward(x0, u, 0.0, T, dt, cfg).x[-1]
          for dt in (0.2, 0.1, 0.0125)}
    order_f = float(np.log2(np.max(np.abs(xs[0.2] - xs[0.0125]))
                            / np.max(np.abs(xs[0.1] - xs[0.0125]))))
    _check(failures, order_f >= 3.8, f"forward order {order_f:.2f}")

    gT = rng.normal(size=(3, 3))
    xocc = _simplex(rng, 3, 3)
    gs = {dt: integrate_backward(gT, xocc, 0.0, T, dt, cfg, control=u).g[0]
          for dt in (0.2, 0.1, 0.0125)}
    order_b = float(np.log2(np.max(np.abs(gs[0.2] - gs[0.0125]))
                            / np.max(np.abs(gs[0.1] - gs[0.0125]))))
    _check(failures, order_b >= 3.8, f"backward order {order_b:.2f}")
    _verdict(10, "integrator-order", failures)


def test_11_reproducibility(tmp_path):
    # same seed -> bit-identical CSVs; same command -> identical manifest
    failures = []
    rng = np.random.default_rng(1111)
    cfg_path = write_config(tmp_path / "cfg.json",
                            make_config(2, 2, rng, db=True, delta=0.05))

    def run(out):
        return subprocess.run(
            [sys.executable, "-m", "hbmfg", "simulate", cfg_path,
             "--out", str(out), "--N", "300", "--T", "2", "--reps", "3",
             "--seed", "7", "--samples", "20"],
            capture_output=True, text=True)

    p1 = run(tmp_path / "o1")
    p2 = run(tmp_path / "o2")
    _check(failures, p1.returncode == 0 and p2.returncode == 0,
           f"exit codes {p1.returncode}/{p2.returncode}: {p1.stderr}{p2.stderr}")
    if p1.returncode == 0 and p2.returncode == 0:
        a1 = (tmp_path / "o1" / "aggregate.csv").read_bytes()
        a2 = (tmp_path / "o2" / "aggregate.csv").read_bytes()
        _check(failures, a1 == a2, "same-seed runs produced different CSVs")
        # the manifest echoes the exact command line, so compare a literal rerun
        m1 = (tmp_path / "o1" / "manifest.json").read_bytes()
        p3 = run(tmp_path / "o1")
        _check(failures, p3.returncode == 0, f"rerun failed: {p3.stderr}")
        m2 = (tmp_path / "o1" / "manifest.json").read_bytes()
        _check(failures, m1 == m2, "identical command produced a different manifest")
    _verdict(11, "reproducibility", failures)
