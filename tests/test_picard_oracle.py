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
"""

import numpy as np
import pytest

from mpnls import (Field, MultipointSpec, PowerNonlinearity, Trajectory, build_grid,
                   forward_transform, inverse_transform, multipoint_residual, sample_profile,
                   solve_nls_multipoint, symbol_lattice, validate_symbol)

SUBSTEPS = 8
NL = PowerNonlinearity(-1.0, 2.0)  # cubic focusing


def strang_march(sym, grid, nl, u0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Frames of the split-step march from u0 at times[0], one per entry of times."""
    larr = symbol_lattice(sym, grid)
    frames = [u0]
    u = u0
    for t_prev, t_next in zip(times, times[1:]):
        dt = (t_next - t_prev) / SUBSTEPS
        free = np.exp(-1j * dt * larr)
        for _ in range(SUBSTEPS):
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
