import warnings

import numpy as np
import pytest

from mpnls import (
    BadExponentError,
    BadPowerError,
    Field,
    MultipointSpec,
    NoConvergenceError,
    NonFiniteError,
    PowerNonlinearity,
    Trajectory,
    build_grid,
    eval_nonlinearity,
    integral_residual,
    lipschitz_check,
    metric_exponent,
    mixed_norm,
    picard_step,
    sample_profile,
    smallness_indicator,
    solve_linear_multipoint,
    solve_nls_multipoint,
    validate_symbol,
)

NL = PowerNonlinearity(-1.0, 2.0)


@pytest.fixture(scope="module")
def setup():
    import mpnls

    sym = mpnls.validate_symbol([[1.0]])
    grid = build_grid(1, 128, 10.0)
    phi = sample_profile(grid, {"kind": "gaussian", "amplitude": 0.05, "width": 1.0,
                                "center": [0.0]})
    return sym, grid, phi


# --- pointwise nonlinearity -----------------------------------------------------


def test_eval_zero(setup):
    _, grid, _ = setup
    out = eval_nonlinearity(Field(grid, np.zeros(128)), NL)
    assert np.all(out.values == 0.0)


def test_eval_constant_defocusing_value(setup):
    _, grid, _ = setup
    out = eval_nonlinearity(Field(grid, np.full(128, 2.0)), NL)
    assert np.allclose(out.values, -8.0, atol=1e-14)


def test_eval_phase_equivariance(setup, rng):
    _, grid, _ = setup
    u = Field(grid, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    theta = 0.83
    lhs = eval_nonlinearity(np.exp(1j * theta) * u, NL)
    rhs = np.exp(1j * theta) * eval_nonlinearity(u, NL)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-13


def test_eval_overflow_flagged(setup):
    _, grid, _ = setup
    big = Field(grid, np.full(128, 1e200))
    with pytest.raises(NonFiniteError):
        eval_nonlinearity(big, PowerNonlinearity(1.0, 3.0))


def test_bad_power_rejected():
    with pytest.raises(BadPowerError):
        PowerNonlinearity(1.0, 0.0)


# --- Lipschitz bound --------------------------------------------------------------


def test_lipschitz_equal_fields_all_excluded(setup, rng):
    _, grid, _ = setup
    u = Field(grid, rng.standard_normal(128) + 0j)
    assert lipschitz_check(u, u, NL) == 0.0


def test_lipschitz_scalar_pair(setup):
    _, grid, _ = setup
    u = Field(grid, np.ones(128))
    v = Field(grid, np.zeros(128))
    assert lipschitz_check(u, v, PowerNonlinearity(1.0, 2.0)) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("p,c_p", [(1.0, 1.0), (2.0, 1.5), (3.0, 2.0)])
def test_lipschitz_brute_force_bound(p, c_p):
    # scalar inequality |F(u)-F(v)| <= C_p |u-v|(|u|^p+|v|^p); the sup (1+p)/2
    # is approached by close radial pairs, so include those in the sample
    # (perturbation kept >= 1e-4 so cancellation noise stays below the slack)
    nl = PowerNonlinearity(1.0, p)
    g = build_grid(1, 125_000, 1.0)
    worst = 0.0
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        u = rng.uniform(-10, 10, 100_000) + 1j * rng.uniform(-10, 10, 100_000)
        v = rng.uniform(-10, 10, 100_000) + 1j * rng.uniform(-10, 10, 100_000)
        radial = rng.uniform(0.1, 10, 25_000) * np.exp(1j * rng.uniform(0, 2 * np.pi, 25_000))
        delta = rng.uniform(1e-4, 1e-3, 25_000) * rng.choice([-1.0, 1.0], 25_000)
        u = np.concatenate([u, radial])
        v = np.concatenate([v, radial * (1.0 + delta)])
        worst = max(worst, lipschitz_check(Field(g, u), Field(g, v), nl))
    assert worst <= c_p + 1e-9
    assert worst > 0.9 * c_p  # the bound is close to attained, so C_p is stable
    if p == 2.0:
        assert worst <= 2.0 + 1e-9


# --- metric exponent ----------------------------------------------------------------


def test_metric_exponent_values():
    assert metric_exponent(2, 2.0) == (4.0, False)
    r, clamped = metric_exponent(3, 4.0)
    assert r == pytest.approx(36.0 / 14.0, rel=1e-14) and not clamped
    assert metric_exponent(1, 2.0) == (2.0, True)   # formula hits +inf
    assert metric_exponent(1, 1.0) == (2.0, True)   # formula goes negative


# --- smallness indicator --------------------------------------------------------------


def test_smallness_zero_datum(setup):
    sym, grid, _ = setup
    zero = Field(grid, np.zeros(128))
    assert smallness_indicator(sym, grid, zero, 0.0, NL, 1.0) == 0.0


def test_smallness_scales_linearly(setup):
    sym, grid, phi = setup
    base = smallness_indicator(sym, grid, phi, 0.0, NL, 1.0)
    scaled = smallness_indicator(sym, grid, 3.0 * phi, 0.0, NL, 1.0)
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_smallness_refined_quadrature_oracle(setup):
    sym, grid, phi = setup
    # sigma=4 makes the time integrand genuinely vary
    coarse = smallness_indicator(sym, grid, phi, 0.5, NL, 1.0, sigma=4.0, nt=100)
    dense = smallness_indicator(sym, grid, phi, 0.5, NL, 1.0, sigma=4.0, nt=800)
    assert coarse == pytest.approx(dense, rel=0.01)
    assert coarse > 0.0


# --- Picard iteration -------------------------------------------------------------------


def test_picard_step_linear_case_ignores_input(setup, rng):
    sym, grid, phi = setup
    mp = MultipointSpec(0.0, 1.0, ((0.3, 0.5),))
    linear = solve_linear_multipoint(sym, grid, mp, phi, None, nt=50)
    arbitrary = Trajectory(grid, 0.0, 1.0,
                           rng.standard_normal((51, 128)) + 1j * rng.standard_normal((51, 128)))
    out = picard_step(sym, grid, mp, phi, PowerNonlinearity(0.0, 2.0), arbitrary)
    assert np.max(np.abs(out.values - linear.values)) < 1e-12


def test_picard_fixed_point_is_stationary(setup):
    sym, grid, phi = setup
    mp = MultipointSpec(0.0, 1.0, ((0.3, 0.5),))
    traj, diags = solve_nls_multipoint(sym, grid, mp, phi, NL, nt=50)
    again = picard_step(sym, grid, mp, phi, NL, traj)
    d = mixed_norm(again - traj, NL.p + 2.0, diags.r_metric)
    assert d < 1e-10


def test_picard_step_contracts_in_small_regime(setup, rng):
    sym, grid, phi = setup
    mp = MultipointSpec(0.0, 1.0, ())
    u = solve_linear_multipoint(sym, grid, mp, phi, None, nt=50)
    bump = 1e-3 * (rng.standard_normal((51, 128)) + 1j * rng.standard_normal((51, 128)))
    v = Trajectory(grid, 0.0, 1.0, u.values + bump)
    pu = picard_step(sym, grid, mp, phi, NL, u)
    pv = picard_step(sym, grid, mp, phi, NL, v)
    r, _ = metric_exponent(1, NL.p)
    d_before = mixed_norm(v - u, NL.p + 2.0, r)
    d_after = mixed_norm(pv - pu, NL.p + 2.0, r)
    assert d_after < d_before


def test_solver_linear_case_one_iteration(setup):
    sym, grid, phi = setup
    mp = MultipointSpec(0.0, 1.0, ())
    traj, diags = solve_nls_multipoint(sym, grid, mp, phi, PowerNonlinearity(0.0, 2.0), nt=50)
    linear = solve_linear_multipoint(sym, grid, mp, phi, None, nt=50)
    assert diags.iterations == 1
    assert np.max(np.abs(traj.values - linear.values)) < 1e-13


def test_solver_small_gaussian_converges(setup):
    sym, grid, phi = setup
    mp = MultipointSpec(0.0, 1.0, ())
    traj, diags = solve_nls_multipoint(sym, grid, mp, phi, NL, nt=200)
    assert diags.eta <= 0.1
    assert all(r < 1.0 for r in diags.contraction_ratios)
    assert diags.final_residual < 1e-8
    assert diags.mass_drift < 1e-6
    assert diags.energy_drift < 1e-4
    assert diags.metric_clamped  # n=1, p=2 is exactly the clamped case
    assert diags.r_metric == 2.0
    # estimate shape: measured |grad|^s u norm within 2*eta + 10% slack
    assert diags.grad_s_mixed <= 2.0 * diags.eta * 1.1
    assert diags.s_c == pytest.approx(-0.5, abs=1e-13)


def test_solver_uniqueness_two_initializations(setup):
    sym, grid, phi = setup
    mp = MultipointSpec(0.0, 1.0, ((0.3, 0.5),))
    tol = 1e-10
    traj_a, _ = solve_nls_multipoint(sym, grid, mp, phi, NL, nt=50, tol_fp=tol)
    # second run: start Picard from the zero trajectory instead
    u = Trajectory(grid, 0.0, 1.0, np.zeros((51, 128), dtype=complex))
    for _ in range(20):
        nxt = picard_step(sym, grid, mp, phi, NL, u)
        d = mixed_norm(nxt - u, 4.0, 2.0)
        u = nxt
        if d < tol:
            break
    assert mixed_norm(traj_a - u, 4.0, 2.0) < 10.0 * tol


def test_solver_conservation_second_order(setup):
    sym, grid, phi = setup
    mp = MultipointSpec(0.0, 1.0, ())
    drifts = {}
    for nt in (200, 400, 800):
        _, d = solve_nls_multipoint(sym, grid, mp, phi, NL, nt=nt, tol_fp=1e-13)
        drifts[nt] = (d.mass_drift, d.energy_drift)
    for a, b in ((200, 400), (400, 800)):
        assert 3.5 <= drifts[a][0] / drifts[b][0] <= 4.5
        assert 3.5 <= drifts[a][1] / drifts[b][1] <= 4.5


def test_solver_blowup_is_loud(setup):
    sym, grid, _ = setup
    mp = MultipointSpec(0.0, 1.0, ())
    huge = sample_profile(grid, {"kind": "gaussian", "amplitude": 1000.0, "width": 1.0,
                                 "center": [0.0]})
    with pytest.raises((NoConvergenceError, NonFiniteError)):
        solve_nls_multipoint(sym, grid, mp, huge, NL, nt=50)


def test_solver_overflow_raises_without_numpy_warnings():
    # at amplitude 1.5 the metric distance overflows after a few iterations
    sym = validate_symbol([[1.0]])
    grid = build_grid(1, 256, 10.0)
    phi = sample_profile(grid, {"kind": "gaussian", "amplitude": 1.5, "width": 1.0,
                                "center": [0.0]})
    mp = MultipointSpec(0.0, 1.0, ((0.3, 0.5),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            solve_nls_multipoint(sym, grid, mp, phi, NL, nt=200, max_iter=100)


def test_solver_checks_regularity_before_any_work(setup):
    sym, grid, phi = setup
    mp = MultipointSpec(0.0, 1.0, ())
    elsewhere = build_grid(1, 64, 10.0)  # a core built first would raise GridMismatchError
    with pytest.raises(BadExponentError, match="regularity"):
        solve_nls_multipoint(sym, elsewhere, mp, phi, NL, s=1.5, nt=50)
    with pytest.raises(BadExponentError, match="regularity"):
        smallness_indicator(sym, grid, phi, 1.5, NL, 1.0)


def test_solver_no_convergence_reports_history(setup):
    sym, grid, phi = setup
    mp = MultipointSpec(0.0, 1.0, ())
    with pytest.raises(NoConvergenceError) as err:
        solve_nls_multipoint(sym, grid, mp, phi, NL, nt=50, tol_fp=1e-15, max_iter=2)
    assert err.value.diagnostics is not None
    assert len(err.value.diagnostics["d_history"]) == 2


# --- integral residual ---------------------------------------------------------------


def test_integral_residual_of_converged_solution(setup):
    sym, grid, phi = setup
    mp = MultipointSpec(0.0, 1.0, ((0.3, 0.5),))
    traj, _ = solve_nls_multipoint(sym, grid, mp, phi, NL, nt=50, tol_fp=1e-10)
    assert integral_residual(sym, grid, mp, phi, NL, traj) < 1e-10


def test_integral_residual_linear_exact(setup):
    sym, grid, phi = setup
    mp = MultipointSpec(0.0, 1.0, ())
    linear = solve_linear_multipoint(sym, grid, mp, phi, None, nt=50)
    nl0 = PowerNonlinearity(0.0, 2.0)
    assert integral_residual(sym, grid, mp, phi, nl0, linear) < 1e-12


def test_integral_residual_decreases_under_iteration(setup):
    sym, grid, phi = setup
    mp = MultipointSpec(0.0, 1.0, ())
    u = solve_linear_multipoint(sym, grid, mp, phi, None, nt=50)
    res = [integral_residual(sym, grid, mp, phi, NL, u)]
    for _ in range(3):
        u = picard_step(sym, grid, mp, phi, NL, u)
        res.append(integral_residual(sym, grid, mp, phi, NL, u))
    assert res[0] > 0.0
    assert all(b < a for a, b in zip(res, res[1:]))
