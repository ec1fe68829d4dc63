"""A closed-form oracle for every canonical Strichartz pair: the propagated Gaussian.

For i∂ₜu + Lu = 0 with L(ξ) = ⟨aξ, ξ⟩ and u₀ = A·exp(−|x|²/(2w²)),

    û(t, ξ) = A·wⁿ·exp(−½ ξᵀCξ),  u(t, x) = A·wⁿ·det(C)^{−1/2}·exp(−½ xᵀC⁻¹x),  C = w²I + 2it·a,

so ‖u(t)‖_r^r = (A·wⁿ·|det C|^{−1/2})^r·(2π/r)^{n/2}·det(Re C⁻¹)^{−1/2} and
‖u(t)‖_∞ = A·wⁿ·|det C|^{−1/2}.  On a box wide enough for the Gaussian to vanish at the
walls and a lattice fine enough for û to vanish at the Nyquist modes, the discrete norms are
these to rounding, so `mixed_norm` and `strichartz_norm` of the propagated frames equal the
closed form composed in time with the same trapezoid weights.  This checks the transform's
(2π)^{−n/2} convention, the quadrature weight h and the time weights at once.
"""

import math

import numpy as np
import pytest

from mpnls import (MultipointSpec, Trajectory, build_grid, canonical_pairs, mixed_norm,
                   sample_profile, strichartz_norm, symbol_lattice, validate_symbol)
from mpnls.linear import _datum_spectrum, _Phases, _propagate
from mpnls.norms import _strichartz_norm

INF = math.inf
TOL = 1e-9

# n: (a, amplitude A, width w, N, R, T, nt); the box holds the spread Gaussian to below 1e-16
# of its peak and the lattice resolves û to below 1e-16 of its peak
CASES = {
    1: ([[1.3]], 1.7, 0.8, 256, 20.0, 0.5, 20),
    2: ([[1.0, 0.3], [0.3, 1.6]], 0.9, 1.2, 128, 15.0, 0.4, 16),
    3: ([[1.0, 0.2, 0.1], [0.2, 1.4, 0.0], [0.1, 0.0, 1.2]], 1.1, 1.0, 64, 12.0, 0.3, 8),
}


def closed_form_norm(a, amp, width, t, r):
    """‖u(t)‖_r of the propagated Gaussian, by the formula of the module docstring."""
    a = np.asarray(a, dtype=float)
    n = len(a)
    c = width**2 * np.eye(n) + 2j * t * a
    peak = amp * width**n * abs(np.linalg.det(c)) ** -0.5
    if r == INF:
        return peak
    integral = (2.0 * np.pi / r) ** (n / 2.0) * np.linalg.det(np.linalg.inv(c).real) ** -0.5
    return (peak**r * integral) ** (1.0 / r)


def closed_form_mixed(a, amp, width, times, q, r):
    """L_t^q L_x^r of the closed form on the frame times, with trapezoid weights."""
    frames = np.array([closed_form_norm(a, amp, width, t, r) for t in times])
    if q == INF:
        return frames.max()
    weights = np.ones(len(frames))
    weights[0] = weights[-1] = 0.5
    return float((times[1] - times[0]) * np.sum(weights * frames**q)) ** (1.0 / q)


def propagated(n):
    a, amp, width, N, R, T, nt = CASES[n]
    grid = build_grid(n, N, R)
    phi = sample_profile(grid, {"kind": "gaussian", "amplitude": amp, "width": width})
    phases = _Phases(symbol_lattice(validate_symbol(a), grid))
    times = MultipointSpec(0.0, T).times(nt)
    return grid, phases, _datum_spectrum(phi, grid), times


@pytest.mark.parametrize("n", sorted(CASES))
def test_mixed_and_strichartz_norms_of_the_propagated_gaussian_are_the_closed_form(n):
    a, amp, width = CASES[n][:3]
    grid, phases, u_hat, times = propagated(n)
    stack = np.concatenate([block.copy() for block in _propagate(grid, phases, u_hat, times)])
    traj = Trajectory(grid, times[0], times[-1], stack)
    pairs = canonical_pairs(n)
    expected = {}
    for pair in pairs:
        q, r = float(pair.q), float(pair.r)
        expected[pair] = closed_form_mixed(a, amp, width, times, q, r)
        assert mixed_norm(traj, q, r) == pytest.approx(expected[pair], rel=TOL, abs=0.0), pair
        assert strichartz_norm(traj, [pair]) == pytest.approx(expected[pair], rel=TOL, abs=0.0)
    assert strichartz_norm(traj, pairs) == pytest.approx(max(expected.values()), rel=TOL, abs=0.0)


@pytest.mark.parametrize("with_table", [False, True])
@pytest.mark.parametrize("n", sorted(CASES))
def test_the_verifier_core_reads_the_closed_form(n, with_table):
    # `verify_strichartz`'s reduction with the random datum replaced by the Gaussian: the
    # blocks of `_propagate`, by the phase table or by each block's own rows, reduced as made;
    # pair by pair, since the maximum over the pairs is the time-constant (∞, 2) norm
    a, amp, width = CASES[n][:3]
    grid, phases, u_hat, times = propagated(n)
    table = phases.table(times, times[0]) if with_table else None
    for pair in canonical_pairs(n):
        blocks = _propagate(grid, phases, u_hat, times, times[0], table=table)
        value = _strichartz_norm(blocks, grid.h, times[1] - times[0], [(pair.q, pair.r)])
        expected = closed_form_mixed(a, amp, width, times, float(pair.q), float(pair.r))
        assert value == pytest.approx(expected, rel=TOL, abs=0.0), pair
