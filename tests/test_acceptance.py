"""Acceptance gate: one check per release criterion, one printed verdict each.

All measurements run at desk scale (d = 1).  Constants that the theory
only provides existentially are checked for stability under refinement
rather than against a numeric target.
"""

import math
import os
import time

import numpy as np

from kineticlab.aronson import (
    BarrierParams,
    barrier_residual,
    decay_envelope_check,
    k_threshold,
    region_samples,
)
from kineticlab.cli import main as cli_main
from kineticlab.fields import PhaseGrid
from kineticlab.fundsol import chapman_kolmogorov_residual, j0_table
from kineticlab.geometry import PhasePoint
from kineticlab.harnack import (
    AnalyticField,
    degiorgi_trace,
    fundamental_field,
    harnack_chain,
    l1_linf_ratio,
    strong_harnack_ratio,
    tail_bound_ratio,
)
from kineticlab.kernels import FractionalLaplacian, check_coercivity, check_upper_bound
from kineticlab.operators import nonlocal_profile
from kineticlab.solver import SolverConfig, fundamental_approx

S = 0.5


def _verdict(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {name} failed ({detail})"


def test_01_fundamental_solution_mass():
    t0 = time.perf_counter()
    tab = j0_table(1.0, S, n_freq=256)
    elapsed = time.perf_counter() - t0
    mass = tab.mass()
    ok = abs(mass - 1.0) <= 1e-3 and elapsed < 30.0
    _verdict(1, "fundamental-solution mass", ok, f"mass={mass:.12f}, build={elapsed:.2f}s")


def test_02_self_similarity(tab256):
    ratio = float(tab256.sample(0.0, 0.0, t=2.0)) / tab256.peak()
    err = abs(ratio - 2.0**-3)
    _verdict(2, "self-similar peak ratio", err <= 1e-6, f"J(2)/J(1)={ratio:.9f}, |err|={err:.2e}")


def test_03_chapman_kolmogorov():
    resids = [chapman_kolmogorov_residual(0.5, 0.5, S, n_freq=n)["residual_max"] for n in (128, 256, 512)]
    mono = resids[0] > resids[1] > resids[2]
    ok = mono and resids[-1] < 1e-2
    _verdict(3, "composition residual", ok, "residuals=" + ", ".join(f"{r:.2e}" for r in resids))


def test_04_symbol_oracle(frac_kernel):
    grid = PhaseGrid(nt=1, nx=2, nv=2048, x_period=1.0, v_extent=16 * np.pi)
    inner = np.abs(grid.v_axis) <= 8 * np.pi  # away from the truncated far field
    worst = 0.0
    for kappa in (1.0, 2.0, 4.0):
        prof = np.cos(kappa * grid.v_axis)
        out = nonlocal_profile(frac_kernel, prof, grid)
        want = -abs(kappa) ** (2 * S) * prof
        worst = max(worst, float(np.max(np.abs(out - want)[inner]) / np.max(np.abs(want))))
    _verdict(4, "symbol on cosines", worst < 1e-2, f"max rel err={worst:.2e}")


def test_05_ellipticity_fits():
    unit = FractionalLaplacian(c=1.0, s=S)
    Lam = check_upper_bound(unit)["fitted_constant"]
    coer = check_coercivity(unit, lambda0=1.0)["fitted_constant"]
    ok = abs(Lam - 2.0) <= 0.05 * 2.0 and abs(coer - 1.0) <= 0.05
    _verdict(5, "ellipticity constants", ok, f"Lambda0={Lam:.6f}, coercivity={coer:.6f}")


def test_06_solver_cross_validation(frac_kernel):
    grid = PhaseGrid(nt=1, nx=256, nv=256, x_period=16.0, v_extent=12.0)
    config = SolverConfig(dt=0.01, steps=100, scheme="cn", torus=True)
    rep = fundamental_approx(frac_kernel, grid, config, S, n_freq=1024)
    ok = rep["sup_rel_error"] < 0.01 and rep["mass_drift"] < 1e-3
    _verdict(6, "solver vs explicit solution", ok,
             f"sup rel err={rep['sup_rel_error']:.4f}, mass drift={rep['mass_drift']:.2e}")


def test_07_strong_harnack_stability(tab512):
    f = fundamental_field(tab512, t_offset=1.0)
    z0 = PhasePoint(1.0, 0.0, 0.0)
    r1 = strong_harnack_ratio(f, z0, 0.125, S, nodes=8)["ratio"]
    r2 = strong_harnack_ratio(f, z0, 0.125, S, nodes=16)["ratio"]
    drift = abs(r2 - r1) / r1
    ok = math.isfinite(r2) and drift < 0.2
    _verdict(7, "strong Harnack ratio stability", ok, f"ratios={r1:.4f} -> {r2:.4f}, drift={drift:.2%}")


def test_08_l1_linf_dimensional_consistency():
    const = AnalyticField(lambda t, x, v: np.ones(np.broadcast(t, x, v).shape))
    z0 = PhasePoint(0.0, 0.0, 0.0)
    ratios = [l1_linf_ratio(const, z0, R, S)["ratio"] for R in (0.25, 0.5, 1.0)]
    spread = max(ratios) - min(ratios)
    _verdict(8, "sup/L1 scale invariance", spread <= 1e-10,
             f"ratios={ratios[0]:.12f}, spread={spread:.2e}")


def test_09_tail_bound_stability(solver_run, frac_kernel):
    _, field = solver_run
    z = PhasePoint(1.0, 0.0, 0.0)
    worst = 0.0
    details = []
    for level in (0.0, float(np.median(field.values))):
        r1 = tail_bound_ratio(field, frac_kernel, z, 0.5, l=level, s=S, nodes=6)["ratio"]
        r2 = tail_bound_ratio(field, frac_kernel, z, 0.5, l=level, s=S, nodes=12)["ratio"]
        drift = abs(r2 - r1) / max(abs(r1), 1e-12)
        worst = max(worst, drift)
        details.append(f"l={level:.3g}: {r1:.4g}->{r2:.4g}")
    _verdict(9, "level-set tail constant stability", worst < 0.3, "; ".join(details))


def test_10_degiorgi_trace(solver_run):
    _, field = solver_run
    z = PhasePoint(1.0, 0.0, 0.0)
    tr = degiorgi_trace(field, z, 0.5, delta=0.5, p=1.14, zeta=0.5, s=S)
    As = [row[3] for row in tr["sequence"]]
    ok = tr["decay_ok"] and all(a >= b for a, b in zip(As, As[1:]))
    _verdict(10, "truncated-energy decay", ok,
             f"A0={As[0]:.3g}, A6={As[-1]:.3g}, decay_ok={tr['decay_ok']}")


def test_11_barrier_validity(frac_kernel):
    t0 = time.perf_counter()
    rep = k_threshold(1.0, 0.1, 0.0, 0.0, S, frac_kernel, c=2.0, n_per_region=30, seed=0)
    k_star = rep["k_star"]
    k2 = 2.0 * k_star
    p = BarrierParams(rho=1.0, k=k2, tau0=0.1, sigma=0.1 + 1.0 / (4 * k2), y0=0.0, w0=0.0, s=S)
    zs = region_samples(p, 1667, np.random.default_rng(11))  # 6 x 1667 > 10^4
    res = float(np.max(barrier_residual(p, frac_kernel, np.array(zs), c=2.0)))
    elapsed = time.perf_counter() - t0
    ok = math.isfinite(k_star) and res <= 1e-8 and elapsed < 120.0
    _verdict(11, "barrier supersolution", ok,
             f"k*={k_star:.3f}, max residual={res:.3e} over {len(zs)} samples, {elapsed:.1f}s")


def test_12_envelope_bracketing(tab256, tab512):
    nash = decay_envelope_check(tab256, "NashOnDiag")
    variation = nash["extra"]["variation"]
    drifts = {}
    for kind in ("UpperConditional", "LowerExponential"):
        c1 = decay_envelope_check(tab256, kind)["constant"]
        c2 = decay_envelope_check(tab512, kind)["constant"]
        drifts[kind] = abs(c2 - c1) / max(abs(c1), 1e-12)
    ok = variation < 1e-6 and all(d < 0.3 for d in drifts.values())
    _verdict(12, "decay envelope constants", ok,
             f"on-diag variation={variation:.1e}, refinement drift="
             + ", ".join(f"{k}={v:.2%}" for k, v in drifts.items()))


def test_13_harnack_chain():
    rep = harnack_chain((1.0, 0.0, 0.0), (2.0, 1.0, 1.0), S)
    _verdict(13, "chain link count", rep["N"] == 36,
             f"N={rep['N']}, terms=" + ", ".join(f"{t:.3f}" for t in rep["terms"]))


def test_14_determinism(tmp_path):
    def args(out):
        return ["fundsol", "--t", "1.0", "--n-freq", "128", "--out", out]

    assert cli_main(args(str(tmp_path / "r1"))) == 0
    assert cli_main(args(str(tmp_path / "r2"))) == 0
    same = True
    for name in sorted(os.listdir(tmp_path / "r1")):
        if (tmp_path / "r1" / name).read_bytes() != (tmp_path / "r2" / name).read_bytes():
            same = False
    _verdict(14, "byte-identical reruns", same, f"{len(os.listdir(tmp_path / 'r1'))} files compared")
