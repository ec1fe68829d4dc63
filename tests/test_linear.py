import math
import warnings

import numpy as np
import pytest

from mpnls import (
    BadExponentError,
    Field,
    GridMismatchError,
    LambdaOffGridError,
    MultipointSpec,
    NonFiniteError,
    NonFiniteInputError,
    NonpositiveTimeError,
    PowerNonlinearity,
    ResonanceError,
    SeparableForcing,
    Trajectory,
    apply_propagator,
    boundary_mass_fraction,
    build_grid,
    canonical_pairs,
    forward_transform,
    lebesgue_norm,
    mass,
    min_abs_denominator,
    multipoint_residual,
    random_band_limited,
    sample_profile,
    solve_linear_multipoint,
    solve_nls_multipoint,
    strichartz_norm,
    symbol_lattice,
    validate_symbol,
    verify_dispersive,
    verify_strichartz,
)


def gaussian(grid, amplitude=1.0, width=1.0):
    return sample_profile(grid, {"kind": "gaussian", "amplitude": amplitude,
                                 "width": width, "center": [0.0] * grid.n})


# --- propagator -----------------------------------------------------------------


def test_propagator_identity_at_t0(grid1, sym1, rng):
    f = Field(grid1, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    out = apply_propagator(sym1, grid1, 0.0, f)
    assert np.max(np.abs(out.values - f.values)) < 1e-13


def test_propagator_plane_wave_phase(grid1, sym1):
    k, t = 3.0, 0.37
    pw = sample_profile(grid1, {"kind": "plane_wave", "amplitude": 1.0, "mode": [3]})
    out = apply_propagator(sym1, grid1, t, pw)
    exact = np.exp(-1j * k**2 * t) * pw.values
    assert np.max(np.abs(out.values - exact)) < 1e-13


def test_propagator_is_isometry(grid1, sym1, rng):
    f = Field(grid1, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    out = apply_propagator(sym1, grid1, 1.234, f)
    assert mass(out) == pytest.approx(mass(f), rel=1e-12)


def test_propagator_group_law(grid1, sym1, sym2, rng):
    # U(t)U(s) = U(t+s) and U(t)U(-t) = I on random smooth fields, in 1-D and 2-D
    for sym, grid in ((sym1, grid1), (sym2, build_grid(2, 32, np.pi))):
        for _ in range(10):
            f = random_band_limited(grid, 8, rng)
            t, s = rng.standard_normal(2)
            scale = float(np.max(np.abs(f.values)))
            composed = apply_propagator(sym, grid, t, apply_propagator(sym, grid, s, f))
            direct = apply_propagator(sym, grid, t + s, f)
            assert np.max(np.abs(composed.values - direct.values)) / scale < 1e-13
            back = apply_propagator(sym, grid, -t, apply_propagator(sym, grid, t, f))
            assert np.max(np.abs(back.values - f.values)) / scale < 1e-13


# --- denominator ------------------------------------------------------------------


def denominator(sym, grid, mp):
    """(D(ξ), min|D|) from the one private builder, on the phases of L(ξ)."""
    from mpnls.linear import _denominator, _Phases

    return _denominator(_Phases(symbol_lattice(sym, grid)), mp)


def test_denominator_empty_sum(grid1, sym1):
    mp = MultipointSpec(0.0, 1.0, ())
    values, min_abs = denominator(sym1, grid1, mp)
    assert np.all(values == 1.0) and not values.flags.writeable
    assert min_abs == 1.0
    assert min_abs_denominator(sym1, grid1, mp) == 1.0


def test_denominator_triangle_bound(grid1, sym1, rng):
    # whenever sum|alpha| < 1, min|D| >= 1 - sum|alpha|
    for _ in range(10):
        a1 = 0.3 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        a2 = 0.2 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        lams = sorted(rng.uniform(0.1, 1.0, 2))
        mp = MultipointSpec(0.0, 1.0, ((a1, lams[0]), (a2, lams[1])))
        assert min_abs_denominator(sym1, grid1, mp) >= 0.5 - 1e-12


def test_denominator_vanishes_at_resonant_mode(grid1, sym1):
    # alpha=1 and lambda*L(xi*) = 2*pi at the lattice mode xi*=1
    mp = MultipointSpec(0.0, 2 * np.pi, ((1.0, 2 * np.pi),))
    values, _ = denominator(sym1, grid1, mp)
    i_star = np.where(grid1.freq_axes[0] == 1.0)[0][0]
    assert abs(values[i_star]) < 1e-12
    assert min_abs_denominator(sym1, grid1, mp) < 1e-12


# --- initial datum -----------------------------------------------------------------


def test_initial_data_classical_reduction(grid1, sym1, rng):
    phi = Field(grid1, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    u0 = solve_linear_multipoint(sym1, grid1, MultipointSpec(0.0, 1.0, ()), phi, nt=10).frame(0)
    assert np.max(np.abs(u0.values - phi.values)) < 1e-12


def test_initial_data_worked_single_mode(grid1, sym1):
    # phi = e^{ix}, alpha = 1/2, lambda = pi: D = 1 - e^{-i pi}/2 = 3/2
    phi = sample_profile(grid1, {"kind": "plane_wave", "amplitude": 1.0, "mode": [1]})
    mp = MultipointSpec(0.0, np.pi, ((0.5, np.pi),))
    u0 = solve_linear_multipoint(sym1, grid1, mp, phi, nt=10).frame(0)
    assert np.max(np.abs(u0.values - (2.0 / 3.0) * phi.values)) < 1e-12


def test_initial_data_resonance_refused(grid1, sym1):
    mp = MultipointSpec(0.0, 2 * np.pi, ((1.0, 2 * np.pi),))
    with pytest.raises(ResonanceError) as err:
        solve_linear_multipoint(sym1, grid1, mp, gaussian(grid1), nt=10)
    assert err.value.min_abs < 1e-12
    assert err.value.eps_res == 1e-8


@pytest.mark.parametrize("eps_res", [0.0, -1.0])
@pytest.mark.parametrize("solver", ["linear", "nls"])
def test_a_nonpositive_eps_res_is_refused_before_the_build(grid1, sym1, monkeypatch, solver,
                                                          eps_res):
    # α = 1 at λ = T makes D(0) = 0: the solve names eps_res before it builds L(ξ), rather
    # than refusing as resonance or dividing by zero with a numpy warning
    from mpnls import linear

    def no_build(*args):
        raise AssertionError("L(xi) was built before eps_res was checked")

    monkeypatch.setattr(linear, "symbol_lattice", no_build)
    mp = MultipointSpec(0.0, 1.0, ((1.0, 1.0),))
    with warnings.catch_warnings(), pytest.raises(ValueError, match="eps_res must be positive"):
        warnings.simplefilter("error")
        if solver == "linear":
            solve_linear_multipoint(sym1, grid1, mp, gaussian(grid1), nt=10, eps_res=eps_res)
        else:
            solve_nls_multipoint(sym1, grid1, mp, gaussian(grid1), PowerNonlinearity(-1.0, 2.0),
                                 nt=10, eps_res=eps_res)


# --- Duhamel -------------------------------------------------------------------------


def duhamel_term(sym, grid, forcing):
    """G(t) = -i∫ₜ₀ᵗ U_L(t-τ)F(τ)dτ: the linear solve with a zero datum and no terms."""
    mp = MultipointSpec(forcing.t0, forcing.T, ())
    zero = Field(grid, np.zeros(grid.shape))
    return solve_linear_multipoint(sym, grid, mp, zero, forcing, nt=forcing.nt)


def test_duhamel_zero_forcing(grid1, sym1):
    forcing = Trajectory(grid1, 0.0, 1.0, np.zeros((11, 64), dtype=complex))
    g = duhamel_term(sym1, grid1, forcing)
    assert np.all(g.values == 0.0)


def test_duhamel_first_frame_empty_integral(grid1, sym1, rng):
    vals = rng.standard_normal((11, 64)) + 1j * rng.standard_normal((11, 64))
    g = duhamel_term(sym1, grid1, Trajectory(grid1, 0.0, 1.0, vals))
    assert np.all(g.values[0] == 0.0)


def exact_forced_mode(c, omega, times):
    """Oracle: û' = -i·omega·û - i·c, û(0)=0  =>  û(t) = -(c/omega)(1-e^{-i omega t})."""
    return -(c / omega) * (1.0 - np.exp(-1j * omega * np.asarray(times)))


def test_duhamel_single_mode_second_order(grid1, sym1):
    k, omega = 2.0, 4.0
    c = 0.7 - 0.3j
    base = sample_profile(grid1, {"kind": "plane_wave", "amplitude": 1.0, "mode": [2]})
    errors = []
    for nt in (50, 100, 200, 400):
        vals = np.broadcast_to(c * base.values, (nt + 1, 64)).copy()
        g = duhamel_term(sym1, grid1, Trajectory(grid1, 0.0, 1.0, vals))
        coeff = g.values[:, 0] / base.values[0]
        exact = exact_forced_mode(c, omega, g.times)
        errors.append(np.max(np.abs(coeff - exact)))
    assert errors[0] < 1e-3
    for a, b in zip(errors, errors[1:]):
        assert 3.5 <= a / b <= 4.5


def test_duhamel_grid_mismatch(grid1, sym1):
    other = build_grid(1, 32, np.pi)
    forcing = Trajectory(other, 0.0, 1.0, np.zeros((5, 32), dtype=complex))
    with pytest.raises(GridMismatchError):
        duhamel_term(sym1, grid1, forcing)


def test_duhamel_in_place_matches_the_recurrence(sym2, rng):
    # overwriting F̂ with Ĝ keeps the bits of the recurrence into a fresh array
    from mpnls.linear import _duhamel_spectral

    grid = build_grid(2, 16, np.pi)
    larr = symbol_lattice(sym2, grid)
    fhat = rng.standard_normal((9, 16, 16)) + 1j * rng.standard_normal((9, 16, 16))
    dt = 0.125
    step = np.exp(-1j * dt * larr)
    ghat = np.zeros_like(fhat)
    for m in range(1, len(fhat)):
        ghat[m] = step * ghat[m - 1] + (-0.5j * dt) * (step * fhat[m - 1] + fhat[m])
    assert _duhamel_spectral(step, dt, fhat.copy()).tobytes() == ghat.tobytes()


@pytest.mark.parametrize("n, N", [(1, 64), (2, 16), (3, 16)])
@pytest.mark.parametrize("nt", [16, 200])
def test_duhamel_pass_transforms_like_the_per_frame_transform(n, N, nt, rng):
    # the core transforms F block by block; Ĝ keeps the bits of a per-frame transform,
    # whether a writer fills each block in place (Φ's) or a trajectory's frames are read,
    # and whether Ĝ is stacked or made in two block buffers, pass after pass once the datum
    # solve's pass has stopped at the block of λ
    from mpnls.linear import _duhamel_spectral, _MultipointCore

    grid = build_grid(n, N, 3.0)
    sym = validate_symbol(np.eye(n))
    mp = MultipointSpec(0.0, 1.0, ((0.3, 0.5),))
    core = _MultipointCore(sym, grid, mp, gaussian(grid), nt, 1e-8)
    shape = (nt + 1,) + grid.shape
    forcing = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    fhat = np.stack([forward_transform(Field(grid, f)).values for f in forcing])
    dt = 1.0 / nt
    expected = _duhamel_spectral(np.exp(-1j * dt * symbol_lattice(sym, grid)), dt, fhat)
    for maker in (core.duhamel(lambda rows, out: np.copyto(out, forcing[rows])),
                  core.duhamel(Trajectory(grid, 0.0, 1.0, forcing))):
        assert np.array_equal(maker.stack(), expected)
        read = 0
        for block in maker:  # as the datum solve reads it
            read += len(block)
            if read > max(core.lam_idx):
                break
        assert read < nt + 1
        for _ in range(2):
            assert np.array_equal(np.concatenate([block.copy() for block in maker]), expected)


@pytest.mark.parametrize("n, N", [(1, 64), (2, 32)])
@pytest.mark.parametrize("nt", [1, 7, 64])
def test_rolling_and_in_place_recurrences_give_the_same_duhamel_term(n, N, nt, rng):
    # a SeparableForcing's Ĝ, made by a rolling pass in two block buffers or stacked, reads
    # the bits of the in-place recurrence over the stack envelope ⊗ φ̂_f, pass after pass
    from mpnls.grid import _stack_blocks
    from mpnls.linear import _duhamel_spectral, _MultipointCore

    grid = build_grid(n, N, 3.0)
    sym = validate_symbol(np.eye(n))
    core = _MultipointCore(sym, grid, MultipointSpec(0.0, 1.0), gaussian(grid), nt, 1e-8)
    larr = symbol_lattice(sym, grid)
    dt = 1.0 / nt
    step = np.exp(-1j * dt * larr)
    profile = random_band_limited(grid, 4, rng)
    spec = forward_transform(profile).values
    envelope = rng.standard_normal(nt + 1) + 1j * rng.standard_normal(nt + 1)
    fhat = np.stack([value * spec for value in envelope])
    expected = _duhamel_spectral(step, dt, fhat)
    rolling = core.duhamel(SeparableForcing(profile, envelope))
    for _ in range(2):
        blocks = [block.copy() for block in rolling]
        assert [len(b) for b in blocks] == [len(b) for b in _stack_blocks(expected)]
        assert np.concatenate(blocks).tobytes() == expected.tobytes()
    assert rolling.stack().tobytes() == expected.tobytes()


# --- full linear solve ----------------------------------------------------------------


def test_solve_classical_matches_propagator(grid1, sym1, rng):
    phi = Field(grid1, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    mp = MultipointSpec(0.0, 1.0, ())
    traj = solve_linear_multipoint(sym1, grid1, mp, phi, None, nt=20)
    for m, t in enumerate(traj.times):
        direct = apply_propagator(sym1, grid1, t, phi)
        assert np.max(np.abs(traj.frame(m).values - direct.values)) < 1e-13
    assert multipoint_residual(traj, mp, phi) < 1e-13


def test_solve_worked_single_mode(grid1, sym1):
    phi = sample_profile(grid1, {"kind": "plane_wave", "amplitude": 1.0, "mode": [1]})
    mp = MultipointSpec(0.0, np.pi, ((0.5, np.pi),))
    traj = solve_linear_multipoint(sym1, grid1, mp, phi, None, nt=64)
    x = grid1.x_axes[0]
    for m, t in enumerate(traj.times):
        exact = (2.0 / 3.0) * np.exp(1j * (x - t))
        assert np.max(np.abs(traj.frame(m).values - exact)) < 1e-12
    assert multipoint_residual(traj, mp, phi) < 1e-12


def test_solve_mass_constant_without_forcing(grid1, sym1, rng):
    phi = Field(grid1, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    mp = MultipointSpec(0.0, 1.0, ((0.4, 0.5),))
    traj = solve_linear_multipoint(sym1, grid1, mp, phi, None, nt=16)
    masses = [mass(traj.frame(m)) for m in range(17)]
    assert max(masses) - min(masses) < 1e-12 * masses[0]


def test_solve_random_multipoint_residual(grid1, sym1, rng):
    alphas = (0.5 * np.exp(0.4j), 0.3 * np.exp(-1.2j))
    mp = MultipointSpec(0.0, 1.0, ((alphas[0], 0.4), (alphas[1], 0.8)))
    for _ in range(5):
        phi = random_band_limited(grid1, 10, rng)
        traj = solve_linear_multipoint(sym1, grid1, mp, phi, None, nt=40)
        assert multipoint_residual(traj, mp, phi) < 1e-10


def test_solve_lambda_off_grid(grid1, sym1):
    mp = MultipointSpec(0.0, 1.0, ((0.3, 1.0 / 3.0),))
    with pytest.raises(LambdaOffGridError):
        solve_linear_multipoint(sym1, grid1, mp, gaussian(grid1), None, nt=10)


def test_solve_forcing_grid_mismatch(grid1, sym1):
    mp = MultipointSpec(0.0, 1.0, ())
    forcing = Trajectory(grid1, 0.0, 1.0, np.zeros((11, 64), dtype=complex))
    with pytest.raises(GridMismatchError):
        solve_linear_multipoint(sym1, grid1, mp, gaussian(grid1), forcing, nt=20)


@pytest.mark.parametrize("t0, T, nt, message", [
    (0.0, 2.0, 20, r"forcing spans \[0.0,2.0\], not \[0.0,1.0\]"),
    (0.0, 1.0, 10, r"forcing has nt=10, not nt=20"),
])
def test_solve_forcing_off_the_axis_is_named(grid1, sym1, t0, T, nt, message):
    forcing = Trajectory(grid1, t0, T, np.zeros((nt + 1, 64), dtype=complex))
    with pytest.raises(GridMismatchError, match=message):
        solve_linear_multipoint(sym1, grid1, MultipointSpec(0.0, 1.0, ()), gaussian(grid1),
                                forcing, nt=20)


def test_solve_forced_multipoint_residual(grid1, sym1, rng):
    # the residual oracle must hold with nonzero forcing too
    nt = 50
    base = random_band_limited(grid1, 6, rng)
    envelope = np.cos(np.linspace(0.0, 1.0, nt + 1)) + 0.3j
    vals = envelope[:, None] * base.values[None, :]
    forcing = Trajectory(grid1, 0.0, 1.0, vals)
    mp = MultipointSpec(0.0, 1.0, ((0.35 + 0.1j, 0.5), (-0.25, 0.9)))
    phi = random_band_limited(grid1, 6, rng)
    traj = solve_linear_multipoint(sym1, grid1, mp, phi, forcing, nt=nt)
    assert multipoint_residual(traj, mp, phi) < 1e-10


def test_multipoint_residual_scales_with_perturbation(grid1, sym1, rng):
    phi = random_band_limited(grid1, 8, rng)
    mp = MultipointSpec(0.0, 1.0, ((0.4, 0.5),))
    traj = solve_linear_multipoint(sym1, grid1, mp, phi, None, nt=20)
    res_clean = multipoint_residual(traj, mp, phi)
    bump = np.zeros((21, 64), dtype=complex)
    bump[0] = 1e-3  # perturb only the datum frame
    for eps_scale in (1.0, 2.0):
        perturbed = Trajectory(grid1, 0.0, 1.0, traj.values + eps_scale * bump)
        res = multipoint_residual(perturbed, mp, phi)
        expected = eps_scale * 1e-3 * np.sqrt(2 * np.pi) / lebesgue_norm(phi, 2.0)
        assert res == pytest.approx(expected + res_clean, rel=1e-6)


def test_the_kernel_makes_one_inverse_transform_per_block(grid1, sym1, count_calls):
    # 201 frames of 1 KiB go in 12-frame blocks, the last one partial: 17 blocks
    from mpnls import grid as grid_module

    calls = count_calls(grid_module, "inverse_transform")
    solve_linear_multipoint(sym1, grid1, MultipointSpec(0.0, 1.0), gaussian(grid1), nt=200)
    assert calls["inverse_transform"] == 17


def test_solve_leaves_the_forcing_untouched(grid1, sym1, rng):
    nt = 20
    vals = rng.standard_normal((nt + 1, 64)) + 1j * rng.standard_normal((nt + 1, 64))
    forcing = Trajectory(grid1, 0.0, 1.0, vals)
    before = forcing.values.copy()
    mp = MultipointSpec(0.0, 1.0, ((0.4, 0.5),))
    traj = solve_linear_multipoint(sym1, grid1, mp, gaussian(grid1), forcing, nt=nt)
    assert np.array_equal(forcing.values, before)
    assert not forcing.values.flags.writeable and not traj.values.flags.writeable
    assert not np.shares_memory(traj.values, forcing.values)


def test_solve_refuses_a_forcing_of_another_type(grid1, sym1, rng):
    # a bare stack of frames is not a forcing: refused by type, and never the solve's scratch
    nt = 20
    stack = rng.standard_normal((nt + 1, 64)) + 1j * rng.standard_normal((nt + 1, 64))
    before = stack.copy()
    mp = MultipointSpec(0.0, 1.0, ((0.4, 0.5),))
    for forcing in (stack, stack.tolist()):
        with pytest.raises(TypeError, match="Trajectory or SeparableForcing"):
            solve_linear_multipoint(sym1, grid1, mp, gaussian(grid1), forcing, nt=nt)
    assert stack.flags.writeable and np.array_equal(stack, before)


def test_separable_forcing_is_checked_against_the_solve(grid1, sym1):
    mp, nt = MultipointSpec(0.0, 1.0, ((0.4, 0.5),)), 20
    phi = gaussian(grid1)
    # the profile on another grid, and an envelope one value short
    for forcing in (SeparableForcing(gaussian(build_grid(1, 32, np.pi)), np.ones(nt + 1)),
                    SeparableForcing(gaussian(grid1), np.ones(nt))):
        with pytest.raises(GridMismatchError, match="forcing"):
            solve_linear_multipoint(sym1, grid1, mp, phi, forcing, nt=nt)
    env = np.ones(nt + 1, dtype=complex)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        env[3] = bad
        with pytest.raises(NonFiniteInputError, match="forcing"):
            SeparableForcing(gaussian(grid1), env)
    with pytest.raises(GridMismatchError, match="forcing"):
        SeparableForcing(gaussian(grid1), np.ones((nt + 1, 2)))


def test_separable_forcing_keeps_its_own_envelope(grid1):
    env = np.linspace(0.0, 1.0, 11)
    forcing = SeparableForcing(gaussian(grid1), env)
    env[0] = 5.0
    assert forcing.envelope[0] == 0.0 and not forcing.envelope.flags.writeable


def test_separable_forced_library_overflow_raises_without_warnings(grid1, sym1):
    # the library stacks a SeparableForcing's Ĝ before it propagates; an F̂ past the float
    # range is reported by the frame check, and no numpy warning leaks (the suite turns one
    # into an error)
    mp = MultipointSpec(0.0, 1.0, ((0.5, 0.5),))
    forcing = SeparableForcing(gaussian(grid1, 1e300), np.full(21, 1e300))
    with pytest.raises(NonFiniteError, match=r"^propagated frame at t=0.0 is not finite$"):
        solve_linear_multipoint(sym1, grid1, mp, gaussian(grid1), forcing, nt=20)


def test_separable_forced_solve_holds_one_trajectory_stack(traced_peak):
    # F̂ = envelope ⊗ φ̂_f is the one stack: integrated to Ĝ and propagated in place
    sym, grid, nt = validate_symbol([[1.0]]), build_grid(1, 256, 10.0), 200
    mp = MultipointSpec(0.0, 1.0, ((0.5, 0.4), (0.2 + 0.1j, 0.8)))
    forcing = SeparableForcing(gaussian(grid, 0.1), np.exp(-3j * mp.times(nt)))
    small = build_grid(1, 16, 10.0)  # warm-up: lazy imports and allocator caches
    solve_linear_multipoint(sym, small, mp, gaussian(small),
                            SeparableForcing(gaussian(small), np.ones(11)), nt=10)
    phi = gaussian(grid)
    traj, peak = traced_peak(lambda: solve_linear_multipoint(sym, grid, mp, phi, forcing, nt=nt))
    assert peak / traj.values.nbytes <= 1.2


def test_a_denominator_past_the_double_range_is_refused_quietly():
    # λL(ξ) = 1e10·3.9e307 overflows: the phase is NaN, and D(ξ) is refused as not finite
    # rather than read as a NaN min|D| that passes the resonance check
    sym, grid = validate_symbol([[1e306]]), build_grid(1, 16, 4.0)
    with pytest.raises(NonFiniteError, match=r"^multipoint denominator D\(xi\) is not finite$"):
        min_abs_denominator(sym, grid, MultipointSpec(0.0, 1e10, ((0.2, 1e10),)))


def test_non_finite_times_are_named(grid1, sym1):
    phi = gaussian(grid1)
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"time must be finite, got {t}"):
            apply_propagator(sym1, grid1, t, phi)
    with pytest.raises(ValueError, match="time must be finite, got inf"):
        verify_dispersive(sym1, grid1, phi, [1.0, math.inf])
    with pytest.raises(ValueError, match="time must be finite, got inf"):
        MultipointSpec(0.0, math.inf, ())
    with pytest.raises(ValueError, match="time must be finite, got inf"):
        verify_strichartz(sym1, grid1, T=math.inf, num_samples=1)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.3, -math.inf)])
def test_a_non_finite_alpha_is_named(alpha):
    # refused where the spec is made: not read as a NaN min|D| that passes the resonance
    # check, nor as a numpy warning from D(ξ)
    with pytest.raises(ValueError, match=r"^alpha must be finite, got \("):
        MultipointSpec(0.0, 1.0, ((alpha, 0.5),))


# --- dispersive verification --------------------------------------------------------


def test_dispersive_gaussian_slope(sym1):
    g = build_grid(1, 4096, 100.0)
    phi = gaussian(g)
    times = [float(t) for t in np.linspace(2.0, 12.0, 6)]
    rep = verify_dispersive(sym1, g, phi, times, p=math.inf)
    assert rep.slope == pytest.approx(-0.5, abs=0.05)
    assert not rep.wraparound
    assert all(q > 0 for q in rep.quotients)


def test_dispersive_amplitude_invariance(sym1):
    g = build_grid(1, 512, 40.0)
    times = [2.0, 4.0, 8.0]
    r1 = verify_dispersive(sym1, g, gaussian(g, amplitude=1.0), times, p=4.0)
    r2 = verify_dispersive(sym1, g, gaussian(g, amplitude=2.0), times, p=4.0)
    for a, b in zip(r1.quotients, r2.quotients):
        assert a == pytest.approx(b, rel=1e-12)
    for a, b in zip(r1.norms, r2.norms):
        assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_dispersive_plane_wave_wraparound(grid1, sym1):
    pw = sample_profile(grid1, {"kind": "plane_wave", "amplitude": 1.0, "mode": [1]})
    rep = verify_dispersive(sym1, grid1, pw, [1.0, 2.0], p=math.inf)
    assert rep.wraparound
    assert all(f > 0.01 for f in rep.boundary_fractions)


def test_dispersive_rejections(grid1, sym1):
    phi = gaussian(grid1)
    with pytest.raises(NonpositiveTimeError):
        verify_dispersive(sym1, grid1, phi, [0.0, 1.0])
    with pytest.raises(ValueError):
        verify_dispersive(sym1, grid1, phi, [2.0, 1.0])
    for times in ([], [2.0]):  # a slope needs two points: refused by name, not a NaN slope
        with pytest.raises(ValueError, match=rf"^times must list at least two times for a decay "
                                             rf"slope, got {len(times)}$"):
            verify_dispersive(sym1, grid1, phi, times)
    with pytest.raises(BadExponentError, match=r"^dispersive check needs p in \[2, inf\], got 1.5$"):
        verify_dispersive(sym1, grid1, phi, [1.0, 2.0], p=1.5)


@pytest.mark.parametrize("N, R", [(64, 20.0), (32, 10.0)], ids=["another-box", "fewer-modes"])
def test_dispersive_refuses_a_datum_on_another_grid(sym1, N, R):
    # a datum of the same shape on another box would give quotients of the wrong problem, and
    # one of another shape a broadcast error: both are refused by name
    phi = gaussian(build_grid(1, N, R))
    with pytest.raises(GridMismatchError, match="^datum does not live on the given grid$"):
        verify_dispersive(sym1, build_grid(1, 64, 10.0), phi, [1.0, 2.0, 4.0])


def test_boundary_mass_fraction_uniform(grid1):
    f = Field(grid1, np.ones(64))
    assert boundary_mass_fraction(f) == pytest.approx(0.1, abs=0.02)


@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_boundary_mass_fraction_does_not_depend_on_the_scale(c):
    # |u|² underflows to 0 at 1e-200 and overflows at 1e200; the fraction is then taken
    # from |u|/max|u|
    grid = build_grid(1, 64, 10.0)
    f = sample_profile(grid, {"kind": "gaussian", "amplitude": 1.0, "width": 4.0,
                              "center": [8.0]})
    assert boundary_mass_fraction(c * f) == pytest.approx(boundary_mass_fraction(f), rel=1e-12)
    assert boundary_mass_fraction(0.0 * f) == 0.0


@pytest.mark.parametrize("c", [1e-150, 1e-160, 1e-165])
def test_a_partial_underflow_is_rescaled_too(c):
    # at 1e-160 |u|² is subnormal but its sum is not 0: the rescale is keyed on max|u|^r
    # below the normal range as well, so neither the L² norm nor the fraction loses digits
    grid = build_grid(1, 64, 10.0)
    f = sample_profile(grid, {"kind": "gaussian", "amplitude": 1.0, "width": 4.0,
                              "center": [8.0]})
    assert lebesgue_norm(c * f, 2.0) / c == pytest.approx(lebesgue_norm(f, 2.0), rel=1e-12)
    assert boundary_mass_fraction(c * f) == pytest.approx(boundary_mass_fraction(f), rel=1e-12)


# --- Strichartz verification ----------------------------------------------------------


def test_strichartz_ratios_finite_and_seeded(sym1):
    g = build_grid(1, 64, np.pi)
    rep1 = verify_strichartz(sym1, g, nt=16, num_samples=5, seed=3, band=6)
    rep2 = verify_strichartz(sym1, g, nt=16, num_samples=5, seed=3, band=6)
    assert rep1.ratios == rep2.ratios
    assert rep1.max_ratio >= 1.0 - 1e-12  # the (inf,2) pair alone gives 1
    assert all(np.isfinite(rep1.ratios))


@pytest.mark.parametrize("t0, T, nt, rule", [(1.0, 0.5, 16, r"horizon T=0.5 must exceed t0=1.0"),
                                              (0.0, 1.0, 0, r"nt must be >= 1, got 0"),
                                              (-1e308, 1e308, 4, r"time step \(T - t0\)/nt = inf")])
def test_strichartz_checks_its_time_axis(sym1, grid1, t0, T, nt, rule):
    # a reversed span or an axis with no interval is refused by name, not read as
    # ratios of 1.0, NaN or a ZeroDivisionError
    with pytest.raises(ValueError, match=rule):
        verify_strichartz(sym1, grid1, t0=t0, T=T, nt=nt, num_samples=1)


def test_strichartz_refuses_a_negative_seed_by_name(sym1, grid1):
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        verify_strichartz(sym1, grid1, nt=4, num_samples=1, seed=-1, band=4)


@pytest.mark.parametrize("band", [0, -1])
def test_a_band_below_one_is_refused_by_name(sym1, grid1, band):
    # not by numpy's "negative dimensions", and not as a constant sample
    with pytest.raises(ValueError, match=rf"^band must be >= 1, got {band}$"):
        verify_strichartz(sym1, grid1, nt=4, num_samples=1, band=band)
    with pytest.raises(ValueError, match=rf"^band must be >= 1, got {band}$"):
        random_band_limited(grid1, band, np.random.default_rng(0))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("t0", [0.0, 0.25])
def test_strichartz_ratios_equal_a_per_sample_recomputation(n, t0):
    # each sample, propagated on the shared phase table, reads bit for bit what
    # its own frame-by-frame propagation reads; the small box makes a pair other
    # than (inf,2), whose ratio is 1 by mass conservation, the maximum
    sym = validate_symbol([[1.0]] if n == 1 else [[1.0, 0.2], [0.2, 1.5]])
    grid = build_grid(n, 64 if n == 1 else 32, 1.0 if n == 1 else 0.5)
    T, nt, band = t0 + 1.0, 16, 6 if n == 1 else 4
    rep = verify_strichartz(sym, grid, t0=t0, T=T, nt=nt, num_samples=3, seed=5, band=band)
    assert min(rep.ratios) > 1.0
    rng = np.random.default_rng(5)
    for ratio, data_norm in zip(rep.ratios, rep.data_norms, strict=True):
        phi = random_band_limited(grid, band, rng)
        frames = [apply_propagator(sym, grid, t - t0, phi).values for t in np.linspace(t0, T, nt + 1)]
        l2 = lebesgue_norm(phi, 2.0)
        assert data_norm == l2
        assert ratio == strichartz_norm(Trajectory(grid, t0, T, frames), canonical_pairs(n)) / l2


def test_strichartz_samples_share_one_phase_table_in_memory(traced_peak):
    # the table takes the place of a sample's frames: each sample's frames are
    # released before the next is propagated, so the peak stays below 2.4 arrays
    sym = validate_symbol([[1.0, 0.2], [0.2, 1.5]])
    small = build_grid(2, 16, np.pi)  # warm-up: lazy imports and allocator caches
    verify_strichartz(sym, small, nt=4, num_samples=2, band=4)
    grid, nt = build_grid(2, 64, np.pi), 64
    _, peak = traced_peak(lambda: verify_strichartz(sym, grid, nt=nt, num_samples=8))
    assert peak / ((nt + 1) * grid.shape[0] * grid.shape[1] * 16) <= 2.4


def test_a_strichartz_sample_never_holds_a_trajectory(traced_peak):
    # each sample's frames are reduced to their norms a block at a time as they are made,
    # so the call's peak is the phase table (about 0.44 arrays here) and a few blocks
    sym = validate_symbol([[1.0, 0.2], [0.2, 1.5]])
    small = build_grid(2, 16, np.pi)  # warm-up: lazy imports and allocator caches
    verify_strichartz(sym, small, nt=4, num_samples=2, band=4)
    grid, nt = build_grid(2, 64, np.pi), 64
    _, peak = traced_peak(lambda: verify_strichartz(sym, grid, nt=nt, num_samples=8))
    assert peak / ((nt + 1) * grid.shape[0] * grid.shape[1] * 16) <= 0.75


PHASE_SYMBOLS = {1: [[1.3]], 2: [[1.0, 0.2], [0.2, 1.5]],
                 3: [[1.0, 0.2, 0.1], [0.2, 1.5, -0.3], [0.1, -0.3, 2.0]]}


@pytest.mark.parametrize("n, N", [(1, 64), (2, 16), (3, 8)])
def test_phase_evaluator_keeps_the_bits_of_the_lattice_formulas(n, N, rng):
    # one exponential per distinct L(ξ), Nyquist lines included, gathered onto the lattice,
    # gives every phase, table, D(ξ) and Duhamel step the bits of its lattice formula
    from mpnls.grid import _stack_blocks
    from mpnls.linear import _duhamel_spectral, _Phases, _propagate

    grid = build_grid(n, N, 2.5)
    sym = validate_symbol(PHASE_SYMBOLS[n])
    larr = symbol_lattice(sym, grid)
    phases = _Phases(larr)
    t0, nt = 0.25, 7
    times = MultipointSpec(t0, 1.5).times(nt)
    table = phases.table(times, t0)
    assert table.shape == (nt + 1, np.unique(larr).size)
    assert np.unique(larr).size < larr.size
    assert np.array_equal(np.take(table, phases.where, axis=1),
                          np.exp(-1j * np.multiply.outer(times - t0, larr)))
    for tau in (0.0, 0.125, -0.7, 3.0):
        assert np.array_equal(phases(tau), np.exp(-1j * tau * larr))
    mp = MultipointSpec(t0, 1.5, ((0.2 + 0.1j, times[3]), (-0.3, times[6])))
    d = np.ones(grid.shape, dtype=np.complex128)
    for alpha, lam in mp.points:
        d = d - alpha * np.exp(-1j * (lam - mp.t0) * larr)
    values, min_abs = denominator(sym, grid, mp)
    assert np.array_equal(values, d) and min_abs == float(np.min(np.abs(d)))
    assert min_abs_denominator(sym, grid, mp) == min_abs
    shape = (nt + 1,) + grid.shape
    fhat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    dt = 0.125
    step = np.exp(-1j * dt * larr)
    ghat = np.zeros_like(fhat)
    for m in range(1, nt + 1):
        ghat[m] = step * ghat[m - 1] + (-0.5j * dt) * (step * fhat[m - 1] + fhat[m])
    assert np.array_equal(_duhamel_spectral(step, dt, fhat.copy()), ghat)
    u_hat = fhat[0]

    def stacked(*args):  # the kernel's blocks, copied out of its block buffer
        return np.concatenate([block.copy() for block in _propagate(grid, phases, u_hat, *args)])

    frames = stacked(times, t0)
    assert np.array_equal(stacked(times, t0, None, table), frames)
    assert np.array_equal(stacked(times, t0, _stack_blocks(ghat), table),
                          stacked(times, t0, _stack_blocks(ghat)))


@pytest.mark.parametrize("n, N", [(1, 256), (2, 128), (2, 64), (3, 16)])
def test_a_phase_table_is_built_in_its_own_buffer(n, N, traced_peak):
    # the exponent is written into the table's imaginary part and exponentiated in place:
    # the bits of the formula, at a traced peak within 1.1 tables
    from mpnls.linear import _Phases

    phases = _Phases(symbol_lattice(validate_symbol(PHASE_SYMBOLS[n]), build_grid(n, N, 2.5)))
    times = MultipointSpec(0.25, 1.5).times(64)
    phases.table(times[:2], 0.25)  # warm-up
    table, peak = traced_peak(lambda: phases.table(times, 0.25))
    assert peak <= 1.1 * table.nbytes
    assert np.array_equal(table, np.exp(-1j * np.multiply.outer(times - 0.25, phases.values)))


def test_the_block_finiteness_scan_names_the_first_bad_frame():
    # 65 frames of N = 16 make blocks of four; an Inf in Ĝ at frame 6, the third frame of
    # the second block, is named by its own t and not by the block's first
    from mpnls.grid import _stack_blocks
    from mpnls.linear import _Phases, _propagate

    grid = build_grid(1, 16, 2.5)
    phases = _Phases(symbol_lattice(validate_symbol([[1.3]]), grid))
    times = MultipointSpec(0.25, 1.5).times(64)
    ghat = np.zeros((65, 16), dtype=np.complex128)
    ghat[6, 3] = np.inf
    with pytest.raises(NonFiniteError, match=rf"^propagated frame at t={times[6]} is not finite$"):
        for _ in _propagate(grid, phases, np.ones(16, dtype=np.complex128), times, 0.25,
                            _stack_blocks(ghat)):
            pass


def test_phase_table_of_the_2d_workloads_has_one_column_per_distinct_symbol_value():
    # L(−ξ) = L(ξ) leaves 7,408 distinct values of 16,384; at 256 KiB a lattice temporary is
    # multiplied in place by numpy, with its operands swapped, and D(ξ) keeps those bits too
    from mpnls.linear import _Phases

    grid = build_grid(2, 128, 10.0)
    sym = validate_symbol(PHASE_SYMBOLS[2])
    larr = symbol_lattice(sym, grid)
    times = MultipointSpec(0.0, 1.0).times(4)
    assert _Phases(larr).table(times, 0.0).shape == (5, 7408)
    mp = MultipointSpec(0.0, 1.0, ((0.5, 0.4), (0.2 + 0.1j, 0.8)))
    d = np.ones(grid.shape, dtype=np.complex128)
    for alpha, lam in mp.points:
        d = d - alpha * np.exp(-1j * (lam - mp.t0) * larr)
    assert np.array_equal(denominator(sym, grid, mp)[0], d)


def test_symbol_lattice_matches_pointwise(sym2):
    g = build_grid(2, 8, 1.0)
    larr = symbol_lattice(sym2, g)
    xi0 = g.freq_axes[0][5]
    xi1 = g.freq_axes[1][2]
    expected = 2 * xi0**2 + 2 * xi0 * xi1 + 2 * xi1**2
    assert larr[5, 2] == pytest.approx(expected, rel=1e-14)
