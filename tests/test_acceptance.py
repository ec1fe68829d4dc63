"""Acceptance suite: the exit criteria for this package, one test per criterion.

Each test prints a single `[criterion k] name: PASS/FAIL` line (visible with
pytest -s or in captured output on failure) and asserts at the stated
tolerance.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time

import numpy as np

import mpnls
from mpnls import (
    MultipointSpec,
    PowerNonlinearity,
    apply_propagator,
    build_grid,
    critical_exponent,
    is_admissible,
    multipoint_residual,
    random_band_limited,
    sample_profile,
    solve_linear_multipoint,
    solve_nls_multipoint,
    symbol_lattice,
    validate_symbol,
    verify_dispersive,
    verify_strichartz,
)
from mpnls.cli import run_command


def check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_single_mode_exactness():
    sym = validate_symbol([[1.0]])
    grid = build_grid(1, 256, np.pi)
    k = 3.0
    phi = sample_profile(grid, {"kind": "plane_wave", "amplitude": 1.0, "mode": [3]})
    mp = MultipointSpec(0.0, 1.0, ())
    start = time.perf_counter()
    traj = solve_linear_multipoint(sym, grid, mp, phi, None, nt=200)
    elapsed = time.perf_counter() - start
    x = grid.x_axes[0]
    worst = 0.0
    for m, t in enumerate(traj.times):
        exact = np.exp(1j * k * x) * np.exp(-1j * k**2 * t)
        worst = max(worst, float(np.max(np.abs(traj.frame(m).values - exact))))
    check(1, "single-mode exactness", worst <= 1e-12 and elapsed < 1.0,
          f"max rel err {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_2_multipoint_condition():
    sym = validate_symbol([[1.0]])
    grid = build_grid(1, 128, np.pi)
    alphas = (0.5 * np.exp(0.4j), 0.3 * np.exp(-1.2j))  # sum of moduli = 0.8
    mp = MultipointSpec(0.0, 1.0, ((alphas[0], 0.4), (alphas[1], 0.8)))
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        phi = random_band_limited(grid, 12, rng)
        traj = solve_linear_multipoint(sym, grid, mp, phi, None, nt=100)
        worst = max(worst, multipoint_residual(traj, mp, phi))

    pw = sample_profile(grid, {"kind": "plane_wave", "amplitude": 1.0, "mode": [1]})
    mp1 = MultipointSpec(0.0, np.pi, ((0.5, np.pi),))
    u0 = solve_linear_multipoint(sym, grid, mp1, pw, None, nt=10).frame(0)
    worked = float(np.max(np.abs(u0.values - (2.0 / 3.0) * pw.values)))
    check(2, "multipoint condition", worst <= 1e-10 and worked <= 1e-12,
          f"max residual {worst:.2e}, worked-case err {worked:.2e}")


def test_criterion_3_classical_reduction():
    sym = validate_symbol([[1.0]])
    grid = build_grid(1, 128, np.pi)
    rng = np.random.default_rng(99)
    phi = random_band_limited(grid, 12, rng)
    mp = MultipointSpec(0.0, 1.0, ())
    traj = solve_linear_multipoint(sym, grid, mp, phi, None, nt=50)
    worst = 0.0
    scale = float(np.max(np.abs(phi.values)))
    for m, t in enumerate(traj.times):
        direct = apply_propagator(sym, grid, t, phi)
        worst = max(worst, float(np.max(np.abs(traj.frame(m).values - direct.values))) / scale)
    check(3, "classical reduction", worst <= 1e-13, f"max rel deviation {worst:.2e}")


def test_criterion_4_dispersive_decay():
    start = time.perf_counter()
    sym = validate_symbol([[1.0]])
    grid = build_grid(1, 2**14, 200.0)
    phi = sample_profile(grid, {"kind": "gaussian", "amplitude": 1.0, "width": 1.0,
                                "center": [0.0]})
    times = [float(t) for t in np.linspace(2.0, 20.0, 10)]
    rep = verify_dispersive(sym, grid, phi, times, p=math.inf)

    # closed-form free-evolution oracle |u(t,x)| = (1+4t^2)^{-1/4} e^{-x^2/(2(1+4t^2))};
    # pointwise comparison on the region where the oracle exceeds 1% of its peak
    # (at the box wall the periodized image doubles the ~4e-7 tail)
    x = grid.x_axes[0]
    larr = symbol_lattice(sym, grid)
    phi_hat = mpnls.forward_transform(phi).values
    worst_pointwise = 0.0
    worst_sup = 0.0
    for t in times:
        u = mpnls.inverse_transform(mpnls.Field(grid, np.exp(-1j * t * larr) * phi_hat))
        spread = 1.0 + 4.0 * t * t
        oracle = spread**-0.25 * np.exp(-(x**2) / (2.0 * spread))
        region = oracle >= 0.01 * oracle.max()
        worst_pointwise = max(worst_pointwise, float(np.max(
            np.abs(np.abs(u.values[region]) - oracle[region]) / oracle[region])))
        worst_sup = max(worst_sup, abs(float(np.max(np.abs(u.values))) - spread**-0.25)
                        / spread**-0.25)
    elapsed = time.perf_counter() - start
    ok = (abs(rep.slope + 0.5) <= 0.05 and worst_pointwise <= 1e-6
          and worst_sup <= 1e-6 and not rep.wraparound and elapsed < 30.0)
    check(4, "dispersive decay", ok,
          f"slope {rep.slope:.4f}, pointwise err {worst_pointwise:.2e}, "
          f"sup err {worst_sup:.2e}, runtime {elapsed:.1f}s")


def test_criterion_5_duhamel_order():
    sym = validate_symbol([[1.0]])
    grid = build_grid(1, 64, np.pi)
    omega = 4.0  # L(k) at k = 2
    c = 0.8 - 0.25j
    base = sample_profile(grid, {"kind": "plane_wave", "amplitude": 1.0, "mode": [2]})
    errors = []
    for nt in (50, 100, 200, 400):
        vals = np.broadcast_to(c * base.values, (nt + 1, 64)).copy()
        forcing = mpnls.Trajectory(grid, 0.0, 1.0, vals)
        zero = mpnls.Field(grid, np.zeros(grid.shape))  # G alone: zero datum, no terms
        g = solve_linear_multipoint(sym, grid, MultipointSpec(0.0, 1.0, ()), zero, forcing, nt=nt)
        coeff = g.values[:, 0] / base.values[0]
        exact = -(c / omega) * (1.0 - np.exp(-1j * omega * g.times))
        errors.append(float(np.max(np.abs(coeff - exact))))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    check(5, "Duhamel quadrature order", ok,
          "halving ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_6_strichartz_boundedness():
    sym = validate_symbol([[1.0, 0.0], [0.0, 1.0]])
    maxima = {}
    for N in (64, 128):
        grid = build_grid(2, N, np.pi)
        rep = verify_strichartz(sym, grid, t0=0.0, T=1.0, nt=48, num_samples=20,
                                seed=11, band=8)
        maxima[N] = rep.max_ratio
    variation = abs(maxima[128] - maxima[64]) / maxima[64]

    # amplitude homogeneity of the ratio on one sample
    grid = build_grid(2, 64, np.pi)
    rng = np.random.default_rng(5)
    phi = random_band_limited(grid, 8, rng)
    larr = symbol_lattice(sym, grid)
    phi_hat = mpnls.forward_transform(phi).values
    ts = np.linspace(0.0, 1.0, 49)
    frames = np.stack([mpnls.inverse_transform(
        mpnls.Field(grid, np.exp(-1j * t * larr) * phi_hat)).values for t in ts])
    pairs = mpnls.canonical_pairs(2)
    c = 2.7 - 1.3j
    ratio_1 = (mpnls.strichartz_norm(mpnls.Trajectory(grid, 0.0, 1.0, frames), pairs)
               / mpnls.lebesgue_norm(phi, 2.0))
    ratio_c = (mpnls.strichartz_norm(mpnls.Trajectory(grid, 0.0, 1.0, c * frames), pairs)
               / mpnls.lebesgue_norm(c * phi, 2.0))
    homogeneity = abs(ratio_c - ratio_1) / ratio_1
    ok = variation < 0.20 and homogeneity <= 1e-12
    check(6, "Strichartz boundedness", ok,
          f"max ratio {maxima[64]:.6f} -> {maxima[128]:.6f} "
          f"(variation {variation:.2%}), homogeneity dev {homogeneity:.1e}")


def test_criterion_7_picard_convergence():
    sym = validate_symbol([[1.0]])
    grid = build_grid(1, 256, 10.0)
    phi = sample_profile(grid, {"kind": "gaussian", "amplitude": 0.05, "width": 1.0,
                                "center": [0.0]})
    nl = PowerNonlinearity(-1.0, 2.0)

    mp = MultipointSpec(0.0, 1.0, ((0.3, 0.5),))
    traj, diags = solve_nls_multipoint(sym, grid, mp, phi, nl, s=0.0, nt=200)
    mp_res = multipoint_residual(traj, mp, phi)
    picard_ok = (diags.eta <= 0.1
                 and all(r < 1.0 for r in diags.contraction_ratios)
                 and diags.final_residual < 1e-8
                 and mp_res < 1e-8)

    mp0 = MultipointSpec(0.0, 1.0, ())
    _, d200 = solve_nls_multipoint(sym, grid, mp0, phi, nl, s=0.0, nt=200)
    drift_ok = d200.mass_drift < 1e-6 and d200.energy_drift < 1e-4

    # quadrature-order check needs the fixed point resolved below the drift
    drifts = {}
    for nt in (200, 400, 800):
        _, d = solve_nls_multipoint(sym, grid, mp0, phi, nl, s=0.0, nt=nt, tol_fp=1e-13)
        drifts[nt] = (d.mass_drift, d.energy_drift)
    factors = []
    for a, b in ((200, 400), (400, 800)):
        factors.append(drifts[a][0] / drifts[b][0])
        factors.append(drifts[a][1] / drifts[b][1])
    refine_ok = all(3.5 <= f <= 4.5 for f in factors)

    check(7, "Picard convergence", picard_ok and drift_ok and refine_ok,
          f"eta {diags.eta:.4f}, iters {diags.iterations}, "
          f"final residual {diags.final_residual:.1e}, mp residual {mp_res:.1e}, "
          f"mass drift {d200.mass_drift:.1e}, energy drift {d200.energy_drift:.1e}, "
          "refinement " + ", ".join(f"{f:.2f}" for f in factors))


def test_criterion_8_resonance_safety(tmp_path, capsys):
    config = {
        "symbol": {"a": [[1.0]]},
        "grid": {"n": 1, "N": 16, "R": math.pi},
        "time": {"t0": 0.0, "T": 2 * math.pi, "Nt": 16},
        "multipoint": [{"alpha_re": 1.0, "alpha_im": 0.0, "lambda": 2 * math.pi}],
        "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 0.5, "center": [0.0]},
        "outputs": {"report_path": str(tmp_path / "res")},
    }
    cfg_path = tmp_path / "resonant.json"
    cfg_path.write_text(json.dumps(config))
    code = run_command(["solve-linear", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    no_outputs = not (tmp_path / "res.csv").exists() and not (tmp_path / "res.json").exists()
    ok = code == 3 and "min |D(xi)|" in err and "eps_res" in err and no_outputs
    with capsys.disabled():
        check(8, "resonance safety", ok,
              f"exit code {code}, outputs absent {no_outputs}")


def test_criterion_9_classification():
    checks = [
        critical_exponent(3, 4.0, 1.0).classification == "critical",
        critical_exponent(2, 2.0, 0.0).classification == "critical",
        critical_exponent(3, 4.0, 1.2).classification == "subcritical",
        is_admissible(2, 2, math.inf) == "rejected",
        is_admissible(3, 2, 6) == "sharp",
    ]
    check(9, "criticality and admissibility classification", all(checks),
          f"{sum(checks)}/5 table entries correct")
