import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mpnls import (
    BadExponentError,
    BadPowerError,
    Field,
    GridMismatchError,
    MultipointSpec,
    NoConvergenceError,
    NonFiniteError,
    PowerNonlinearity,
    Trajectory,
    build_grid,
    eval_nonlinearity,
    integral_residual,
    metric_exponent,
    mixed_norm,
    multipoint_residual,
    picard_step,
    sample_profile,
    smallness_indicator,
    solve_linear_multipoint,
    solve_nls_multipoint,
    validate_symbol,
)
from mpnls import nonlinear
from mpnls.nonlinear import DEFAULT_TOL_FP, DIVERGENCE_FACTOR, MIX_GATE

NL = PowerNonlinearity(-1.0, 2.0)


@pytest.fixture(scope="module")
def setup():
    import mpnls

    sym = mpnls.validate_symbol([[1.0]])
    grid = build_grid(1, 128, 10.0)
    phi = sample_profile(grid, {"kind": "gaussian", "amplitude": 0.05, "width": 1.0,
                                "center": [0.0]})
    return sym, grid, phi


def difference(a, b):
    """a − b on a's time axis, by array arithmetic."""
    return Trajectory(a.grid, a.t0, a.T, a.values - b.values)


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


@pytest.mark.parametrize("lam, p", [(-1.0, 2.0), (0.7, 3.0), (2.5, 1.5), (-1.0, 4.0 / 3.0)])
def test_power_block_matches_the_pointwise_formula(rng, lam, p):
    # built block by block in its own output, F keeps the bits of the one-line formula
    nl = PowerNonlinearity(lam, p)
    u = rng.standard_normal((37, 8, 4)) + 1j * rng.standard_normal((37, 8, 4))
    u[3, 2, 1] = 0.0
    u[5, 0, 0] = -0.0
    expected = nl.lam * np.abs(u) ** nl.p * u
    assert nonlinear._power_block(u, nl).tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", [(201, 64), (201, 64, 64), (1, 16)])
def test_power_block_equals_the_formula_frame_by_frame(rng, shape):
    # blocks of 12 frames, of 4 frames of 64² (the 256 KiB bound), and a one-frame stack
    nl = PowerNonlinearity(-1.0, 2.0)
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = nonlinear._power_block(u, nl)
    for frame, f in zip(out, u):
        assert np.array_equal(frame, nl.lam * np.abs(f) ** nl.p * f)


def test_bad_power_rejected():
    with pytest.raises(BadPowerError):
        PowerNonlinearity(1.0, 0.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_a_non_finite_lambda_is_named(lam):
    # refused where it is made, not reported later as an overflowed nonlinearity
    with pytest.raises(ValueError, match=f"^lambda must be finite, got {lam}$"):
        PowerNonlinearity(lam, 2.0)


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
    # at p = 4 in 1-D the metric is L_t^6 L_x^6 (r ≠ 2), so the time integrand genuinely varies
    quartic = PowerNonlinearity(-1.0, 4.0)
    assert metric_exponent(1, quartic.p) == (6.0, False)
    coarse = smallness_indicator(sym, grid, phi, 0.5, quartic, 1.0, nt=100)
    dense = smallness_indicator(sym, grid, phi, 0.5, quartic, 1.0, nt=800)
    assert coarse == pytest.approx(dense, rel=0.01)
    assert coarse > 0.0


@pytest.mark.parametrize("t0, T, nt, rule", [(1.0, 0.5, 50, r"horizon T=0.5 must exceed t0=1.0"),
                                              (0.0, 1.0, 0, r"nt must be >= 1, got 0")])
def test_smallness_checks_its_time_axis(setup, t0, T, nt, rule):
    # a reversed span or an axis with no interval is refused by name, not read as NaN
    sym, grid, phi = setup
    with pytest.raises(ValueError, match=rule):
        smallness_indicator(sym, grid, phi, 0.0, NL, T, t0=t0, nt=nt)


def test_smallness_refuses_a_datum_on_another_grid(setup):
    sym, grid, phi = setup
    with pytest.raises(GridMismatchError, match="datum does not live on the given grid"):
        smallness_indicator(sym, build_grid(1, 64, 10.0), phi, 0.0, NL, 1.0)


@pytest.mark.parametrize("s", [0.0, 0.5])
def test_solver_eta_is_the_smallness_indicator(setup, s):
    # the solver's η reads the solve's phase table and the library's, with no core, goes
    # frame by frame: both one pass of the propagation kernel, with the same bits
    sym, grid, phi = setup
    mp = MultipointSpec(0.25, 1.25, ((0.3, 0.75),))
    _, diags = solve_nls_multipoint(sym, grid, mp, phi, NL, s=s, nt=40)
    assert diags.eta == smallness_indicator(sym, grid, phi, s, NL, mp.T, t0=mp.t0, nt=40)


@pytest.mark.parametrize("s", [0.0, 0.5])
def test_streamed_eta_and_strichartz_value_equal_their_stack_forms(setup, s):
    # η and the Strichartz value reduce each block of frames as it is made; the same frames
    # stacked first, through the public norms, read the same bits
    from mpnls import apply_riesz, canonical_pairs, strichartz_norm
    from mpnls.grid import _stack_blocks
    from mpnls.linear import _datum_spectrum, _MultipointCore

    sym, grid, phi = setup
    mp = MultipointSpec(0.25, 1.25, ((0.3, 0.75),))
    traj, diags = solve_nls_multipoint(sym, grid, mp, phi, NL, s=s, nt=40)
    core = _MultipointCore(sym, grid, mp, phi, 40, 1e-8, phase_table=True)
    free = core.wrap(core.propagate(_datum_spectrum(phi, grid, s)))
    assert diags.eta == nonlinear._metric_norm(grid, core.dt, _stack_blocks(free.values), NL)
    assert diags.eta == mixed_norm(free, NL.p + 2.0, metric_exponent(grid.n, NL.p)[0])
    grad = Trajectory(grid, mp.t0, mp.T, [apply_riesz(traj.frame(m), s).values for m in range(41)])
    assert diags.strichartz_value == strichartz_norm(grad, canonical_pairs(grid.n))


def test_a_solve_builds_its_spectral_context_once(setup, monkeypatch):
    # one L(ξ), one phase evaluator and one D(ξ) per solve: every Φ, its Duhamel step and
    # η read the core's
    import sys

    from mpnls import linear

    calls = {"symbol_lattice": 0, "_Phases": 0, "_denominator": 0}
    for name in calls:
        original = getattr(linear, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "mpnls" and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    sym, grid, phi = setup
    _, diags = solve_nls_multipoint(sym, grid, MultipointSpec(0.0, 1.0, ((0.3, 0.5),)), phi,
                                    NL, s=0.5, nt=40)
    assert diags.iterations >= 2
    assert calls == {"symbol_lattice": 1, "_Phases": 1, "_denominator": 1}


# --- Picard iteration -------------------------------------------------------------------


@pytest.mark.parametrize("operation", [picard_step, integral_residual])
def test_iterate_off_the_multipoint_span_is_refused(setup, operation):
    # an iterate on [0, 2] is not relabelled onto the solve's [0, 1]
    sym, grid, phi = setup
    mp = MultipointSpec(0.0, 1.0, ((0.3, 0.5),))
    iterate = Trajectory(grid, 0.0, 2.0, np.zeros((51, 128), dtype=complex))
    with pytest.raises(GridMismatchError, match=r"iterate spans \[0.0,2.0\]"):
        operation(sym, grid, mp, phi, NL, iterate)


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
    d = mixed_norm(difference(again, traj), NL.p + 2.0, diags.r_metric)
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
    d_before = mixed_norm(difference(v, u), NL.p + 2.0, r)
    d_after = mixed_norm(difference(pv, pu), NL.p + 2.0, r)
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
    # estimate shape: measured |grad|^s u norm (s = 0 here) within 2*eta + 10% slack
    assert mixed_norm(traj, NL.p + 2.0, diags.r_metric) <= 2.0 * diags.eta * 1.1


def test_solver_uniqueness_two_initializations(setup):
    sym, grid, phi = setup
    mp = MultipointSpec(0.0, 1.0, ((0.3, 0.5),))
    tol = 1e-10
    traj_a, _ = solve_nls_multipoint(sym, grid, mp, phi, NL, nt=50, tol_fp=tol)
    # second run: start Picard from the zero trajectory instead
    u = Trajectory(grid, 0.0, 1.0, np.zeros((51, 128), dtype=complex))
    for _ in range(20):
        nxt = picard_step(sym, grid, mp, phi, NL, u)
        d = mixed_norm(difference(nxt, u), 4.0, 2.0)
        u = nxt
        if d < tol:
            break
    assert mixed_norm(difference(traj_a, u), 4.0, 2.0) < 10.0 * tol


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
    # amplitude 1.5 runs away (divergence, exit 4); at 1e200 the nonlinearity of the
    # linear solution overflows (non-finite data, exit 5); neither leaks a numpy warning
    sym, grid, mp, _ = focusing_problem(1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for amplitude, error in ((1.5, NoConvergenceError), (1e200, NonFiniteError)):
            _, _, _, phi = focusing_problem(amplitude)
            with pytest.raises(error):
                solve_nls_multipoint(sym, grid, mp, phi, NL, nt=200, max_iter=100)


def test_solver_divergence_reports_history():
    sym, grid, mp, phi = focusing_problem(2.0)
    with pytest.raises(NoConvergenceError, match="diverged") as err:
        solve_nls_multipoint(sym, grid, mp, phi, NL, nt=200, max_iter=100)
    d = err.value.diagnostics["d_history"]
    assert len(d) >= 2 and d[-1] > DIVERGENCE_FACTOR * d[0]
    assert all(x <= DIVERGENCE_FACTOR * d[0] for x in d[1:-1])


@pytest.mark.parametrize("first_bad, error", [(1, NonFiniteError), (2, NoConvergenceError)])
def test_nonfinite_iterate_past_the_first_is_divergence(setup, monkeypatch, first_bad, error):
    # F of the linear solution (call 1) is the data blowing up; F of a later iterate
    # is the iteration running away
    sym, grid, phi = setup
    real, calls = nonlinear._power_block, []

    def overflowing(values, nl):
        calls.append(None)
        if len(calls) >= first_bad:
            raise NonFiniteError("nonlinearity overflowed to non-finite values")
        return real(values, nl)

    monkeypatch.setattr(nonlinear, "_power_block", overflowing)
    with pytest.raises(error) as err:
        solve_nls_multipoint(sym, grid, MultipointSpec(0.0, 1.0, ()), phi, NL, nt=50)
    if error is NoConvergenceError:
        assert len(err.value.diagnostics["d_history"]) == first_bad - 1


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


# --- mixing and memory ------------------------------------------------------------------


def focusing_problem(amplitude):
    """1-D cubic focusing with α = 0.3 at λ = 0.5 on N = 256, R = 10."""
    sym = validate_symbol([[1.0]])
    grid = build_grid(1, 256, 10.0)
    phi = sample_profile(grid, {"kind": "gaussian", "amplitude": amplitude, "width": 1.0,
                                "center": [0.0]})
    return sym, grid, MultipointSpec(0.0, 1.0, ((0.3, 0.5),)), phi


def traced_peak(run):
    """(run(), the peak traced memory of the call in bytes)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = run()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def traced_solve(amplitude, nt):
    """(diagnostics, peak traced memory in trajectory arrays) of one solve."""
    sym, grid, mp, phi = focusing_problem(amplitude)
    small = build_grid(1, 16, 10.0)  # warm-up: lazy imports and allocator caches
    solve_nls_multipoint(sym, small, mp, Field(small, np.zeros(16)), NL, nt=nt)
    (traj, diags), peak = traced_peak(lambda: solve_nls_multipoint(sym, grid, mp, phi, NL, nt=nt))
    return diags, peak / traj.values.nbytes


def test_solver_without_mixing_is_plain_picard(setup):
    # below the gate the solver is a hand loop of Φ and the metric, bit for bit
    sym, grid, phi = setup
    mp = MultipointSpec(0.0, 1.0, ((0.3, 0.5),))
    traj, diags = solve_nls_multipoint(sym, grid, mp, phi, NL, nt=50)
    assert all(q <= MIX_GATE for q in diags.contraction_ratios)
    u = solve_linear_multipoint(sym, grid, mp, phi, None, nt=50)
    d_history = []
    while not d_history or d_history[-1] >= DEFAULT_TOL_FP:
        nxt = picard_step(sym, grid, mp, phi, NL, u)
        d_history.append(mixed_norm(difference(nxt, u), NL.p + 2.0, diags.r_metric))
        u = nxt
    assert tuple(d_history) == diags.d_history
    assert u.values.tobytes() == traj.values.tobytes()


def test_solver_mixing_converges_at_amplitude_one():
    # plain Picard takes 49 iterations here, with ratios alternating near 0.88 and 0.39
    sym, grid, mp, phi = focusing_problem(1.0)
    traj, diags = solve_nls_multipoint(sym, grid, mp, phi, NL, nt=200)
    assert diags.iterations <= 30
    assert diags.final_residual < DEFAULT_TOL_FP
    assert multipoint_residual(traj, mp, phi) <= 1e-12
    assert integral_residual(sym, grid, mp, phi, NL, traj) <= 1e-9


def test_solver_peak_memory_in_trajectory_arrays():
    # plain Picard holds the phase table, the iterate and Φ's one buffer; mixing adds
    # the two history arrays
    diags, peak = traced_solve(0.05, nt=100)
    assert max(diags.contraction_ratios) <= MIX_GATE
    assert peak <= 3.5
    diags, peak = traced_solve(1.0, nt=100)
    assert max(diags.contraction_ratios) > MIX_GATE
    assert peak <= 5.4


def test_solver_peak_memory_with_a_half_size_phase_table():
    # the table holds one phase per distinct L(ξ), about half a trajectory array: plain
    # Picard peaks under 2.9 arrays and mixing under 4.9 (a whole-lattice table reads 3.17
    # and 5.18)
    diags, peak = traced_solve(0.05, nt=100)
    assert max(diags.contraction_ratios) <= MIX_GATE
    assert peak <= 2.9
    diags, peak = traced_solve(1.0, nt=100)
    assert max(diags.contraction_ratios) > MIX_GATE
    assert peak <= 4.9


def test_the_gradient_stack_at_positive_s_is_one_array():
    # at s > 0 |∇|^s u is written frame by frame into one block buffer and reduced there, so
    # the solve peaks within 0.1 trajectory arrays of the s = 0 solve, whose Strichartz value
    # reads u itself
    sym, grid = validate_symbol([[1.0, 0.0], [0.0, 1.0]]), build_grid(2, 32, 10.0)
    mp = MultipointSpec(0.0, 1.0, ((0.3, 0.5),))
    phi = sample_profile(grid, {"kind": "gaussian", "amplitude": 0.05, "width": 1.0,
                                "center": [0.0, 0.0]})
    small = build_grid(2, 8, 10.0)  # warm-up: lazy imports and allocator caches
    peaks = {}
    for s in (0.0, 0.5):
        solve_nls_multipoint(sym, small, mp, Field(small, np.zeros((8, 8))), NL, s=s, nt=64)
        (traj, _), peak = traced_peak(
            lambda: solve_nls_multipoint(sym, grid, mp, phi, NL, s=s, nt=64))
        peaks[s] = peak / traj.values.nbytes
    assert abs(peaks[0.5] - peaks[0.0]) <= 0.1, peaks


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


def test_gradient_diagnostics_at_s0_read_the_trajectory(setup):
    # at s = 0 the |∇|^s trajectory is the solution itself, so the Strichartz
    # diagnostic equals the norm of the returned trajectory bit for bit
    from mpnls import canonical_pairs, strichartz_norm

    sym, grid, phi = setup
    mp = MultipointSpec(0.0, 1.0, ((0.3, 0.5),))
    traj, diags = solve_nls_multipoint(sym, grid, mp, phi, NL, s=0.0, nt=40)
    assert diags.strichartz_value == strichartz_norm(traj, canonical_pairs(grid.n))
