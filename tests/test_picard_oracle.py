"""An independent oracle for the Picard trajectory: Strang split-step marching.

The solver finds u on the whole time axis at once, by a fixed point of the Duhamel
map.  The oracle shares only the transforms and L(ξ) with it: it starts from the
solver's u(t₀) and marches i∂ₜu + Lu + λ|u|ᵖu = 0 forward, 8 Strang substeps per
frame, each a half nonlinear phase e^{iλ|u|ᵖΔt/2} (exact, as |u| is constant under
it), the exact free step e^{-iΔtL} through the public transforms, and another half
phase.  The marcher's
own error is second order in Δt = dt/8, so what the comparison sees is the solver's
second-order time error in dt: it must fall by about 4 each time nt doubles.  The
marched frames meet the multipoint condition to the same order, and together the
trajectory from u(t₀) and the multipoint condition pin the solution.

The datum has an oracle of its own, which starts from φ, not from the solver's u(t₀):
shooting.  u₀ is the fixed point of u₀ ↦ φ + Σₖ αₖ S(λₖ)u₀, S(λₖ) the march from t₀ to
λₖ, found by depth-1 Anderson mixing on the one frame u₀, marching only to the last λₖ.
It shares no datum solve, no D(ξ) and no Duhamel term with the solver, so a wrong datum
that meets the solver's own residuals still fails it.
"""

import numpy as np
import pytest

from mpnls import (Field, MultipointSpec, PowerNonlinearity, Trajectory, build_grid,
                   forward_transform, inverse_transform, multipoint_residual, sample_profile,
                   solve_nls_multipoint, symbol_lattice, validate_symbol)

SUBSTEPS = 8
SHOOTING_SUBSTEPS = 4  # the shooting march runs once per iteration, about 24 times
NL = PowerNonlinearity(-1.0, 2.0)  # cubic focusing


def strang_march(sym, grid, nl, u0: np.ndarray, times: np.ndarray,
                 substeps: int = SUBSTEPS) -> np.ndarray:
    """Frames of the split-step march from u0 at times[0], one per entry of times."""
    larr = symbol_lattice(sym, grid)
    frames = [u0]
    u = u0
    for t_prev, t_next in zip(times, times[1:]):
        dt = (t_next - t_prev) / substeps
        free = np.exp(-1j * dt * larr)
        for _ in range(substeps):
            u = u * np.exp(0.5j * dt * nl.lam * np.abs(u) ** nl.p)
            u_hat = free * forward_transform(Field(grid, u)).values
            u = inverse_transform(Field(grid, u_hat)).values
            u = u * np.exp(0.5j * dt * nl.lam * np.abs(u) ** nl.p)
        frames.append(u)
    return np.stack(frames)


def march_error(amplitude: float, terms: tuple, nt: int) -> tuple[float, float]:
    """max over frames of ‖u_march − u‖₂ over the max of ‖u‖₂, and the multipoint residual
    of the marched frames."""
    sym = validate_symbol([[1.0]])
    grid = build_grid(1, 256, 10.0)
    phi = sample_profile(grid, {"kind": "gaussian", "amplitude": amplitude, "width": 1.0,
                                "center": [0.0]})
    mp = MultipointSpec(0.0, 1.0, terms)
    traj, _ = solve_nls_multipoint(sym, grid, mp, phi, NL, nt=nt, tol_fp=1e-12)
    marched = strang_march(sym, grid, NL, traj.values[0], traj.times)
    diff = np.linalg.norm(marched - traj.values, axis=1)
    error = float(diff.max() / np.linalg.norm(traj.values, axis=1).max())
    return error, multipoint_residual(Trajectory(grid, mp.t0, mp.T, marched), mp, phi)


@pytest.mark.parametrize("amplitude, terms, bound", [
    (0.5, (), 2e-6),              # the classical Cauchy problem
    (1.0, ((0.3, 0.5),), 8e-6),   # u(0) − 0.3·u(0.5) = φ
], ids=["cauchy", "multipoint"])
def test_picard_trajectory_matches_split_step_marching(amplitude, terms, bound):
    errors, residuals = zip(*(march_error(amplitude, terms, nt) for nt in (100, 200, 400)))
    assert errors[1] <= bound, errors
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5, errors
    # the Cauchy condition u(t₀) = φ holds where the march starts; a multipoint one only
    # as well as the marched u(λ) matches the solver's
    assert residuals[1] <= bound, residuals
    if terms:
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 3.5 <= coarse / fine <= 4.5, residuals


def shoot_datum(sym, grid, mp, phi, nt: int) -> np.ndarray:
    """The fixed point u₀ = φ + Σₖ αₖ S(λₖ)u₀, S(λₖ) the march on the axis of nt steps to the
    frame of λₖ, by depth-1 Anderson mixing x = f − γ(f − f_prev), γ = ⟨Δg, g⟩/⟨Δg, Δg⟩, on
    the frame: f the map's value at x, g = f − x."""
    times, idx = mp.times(nt), mp.frame_indices(nt)
    x, history = phi.values.astype(complex), None
    for _ in range(50):
        marched = strang_march(sym, grid, NL, x, times[:max(idx) + 1], SHOOTING_SUBSTEPS)
        f = phi.values + sum(alpha * marched[i] for (alpha, _), i in zip(mp.points, idx))
        g = f - x
        if np.linalg.norm(g) <= 1e-13 * np.linalg.norm(f):
            return f
        x = f
        if history is not None:
            df, dg = f - history[0], g - history[1]
            x = f - np.vdot(dg, g) / np.vdot(dg, dg).real * df
        history = (f, g)
    raise AssertionError("the shooting iteration did not converge in 50 steps")


def test_picard_datum_matches_shooting():
    # at amplitude 1.0, where the solve mixes, the datum of the space-time fixed point is
    # the shooting datum up to both methods' second-order time errors: the gap falls by
    # about 4 each time nt doubles
    sym, grid = validate_symbol([[1.0]]), build_grid(1, 256, 10.0)
    phi = sample_profile(grid, {"kind": "gaussian", "amplitude": 1.0, "width": 1.0,
                                "center": [0.0]})
    mp = MultipointSpec(0.0, 1.0, ((0.3, 0.5),))
    gaps = []
    for nt in (100, 200, 400):
        u0 = solve_nls_multipoint(sym, grid, mp, phi, NL, nt=nt)[0].values[0]
        gaps.append(float(np.linalg.norm(shoot_datum(sym, grid, mp, phi, nt) - u0)
                          / np.linalg.norm(u0)))
    assert gaps[1] <= 2e-6, gaps
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.5 <= coarse / fine <= 4.5, gaps
