"""A closed-form oracle for every canonical Strichartz pair: the propagated Gaussian.

For i∂ₜu + Lu = 0 with L(ξ) = ⟨aξ, ξ⟩ and u₀ = A·exp(−|x|²/(2w²)),

    û(t, ξ) = A·wⁿ·exp(−½ ξᵀCξ),  u(t, x) = A·wⁿ·det(C)^{−1/2}·exp(−½ xᵀC⁻¹x),  C = w²I + 2it·a,

so ‖u(t)‖_r^r = (A·wⁿ·|det C|^{−1/2})^r·(2π/r)^{n/2}·det(Re C⁻¹)^{−1/2} and
‖u(t)‖_∞ = A·wⁿ·|det C|^{−1/2}.  On a box wide enough for the Gaussian to vanish at the
walls and a lattice fine enough for û to vanish at the Nyquist modes, the discrete norms are
these to rounding, so `mixed_norm` and `strichartz_norm` of the propagated frames equal the
closed form composed in time with the same trapezoid weights.  This checks the transform's
(2π)^{−n/2} convention, the quadrature weight h and the time weights at once.

Over the whole time line and for L(ξ) = |ξ|², the Gaussian attains the sharp Strichartz
constants (Foschi, "Maximizers for the Strichartz inequality", J. Eur. Math. Soc. 9 (2007)):
‖u‖_{L⁶ₜₓ}/‖φ‖₂ = 12^{−1/12} in 1-D and ‖u‖_{L⁴ₜₓ}/‖φ‖₂ = 2^{−1/2} in 2-D.  So the closed form
integrated over ℝ gives them, and since ‖u(t)‖ is even in t, the propagated quotient on
[0, T] approaches 2^{−1/q} times them from below as T grows.
"""

import math

import numpy as np
import pytest

from mpnls import (MultipointSpec, Trajectory, build_grid, canonical_pairs, lebesgue_norm,
                   mixed_norm, sample_profile, strichartz_norm, symbol_lattice, validate_symbol)
from mpnls.linear import _datum_spectrum, _Phases, _propagate
from mpnls.norms import _space_time_norm

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
        value = _space_time_norm(blocks, grid.h, times[1] - times[0], [(pair.q, pair.r)])
        expected = closed_form_mixed(a, amp, width, times, float(pair.q), float(pair.r))
        assert value == pytest.approx(expected, rel=TOL, abs=0.0), pair


# n: (q = r of the sharp pair, its constant, amplitude, width); L(ξ) = |ξ|²
SHARP = {1: (6.0, 12.0 ** (-1.0 / 12.0), 1.3, 1.0), 2: (4.0, 2.0**-0.5, 0.8, 1.0)}


def gaussian_l2(n, amp, width):
    """‖φ‖₂ of A·exp(−|x|²/(2w²)) on ℝⁿ."""
    return amp * (math.pi * width**2) ** (n / 4.0)


@pytest.mark.parametrize("n", sorted(SHARP))
def test_the_gaussian_attains_the_sharp_constant_over_the_time_line(n):
    # Gauss-Legendre in θ for t = tan θ: ‖u(t)‖_q^q decays like t⁻² on a sharp pair, so the
    # integrand ‖u(tan θ)‖_q^q·sec²θ is smooth on [−π/2, π/2]
    q, constant, amp, width = SHARP[n]
    nodes, weights = np.polynomial.legendre.leggauss(200)
    theta = 0.5 * np.pi * nodes
    values = [closed_form_norm(np.eye(n), amp, width, t, q) ** q for t in np.tan(theta)]
    integral = 0.5 * np.pi * np.sum(weights * np.asarray(values) / np.cos(theta) ** 2)
    quotient = integral ** (1.0 / q) / gaussian_l2(n, amp, width)
    assert quotient == pytest.approx(constant, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n, N, R, horizons", [(1, 1024, 64.0, (1.0, 4.0, 16.0)),
                                               (2, 128, 24.0, (1.0, 2.0, 4.0))])
def test_the_propagated_quotient_approaches_the_half_line_constant_from_below(n, N, R, horizons):
    # on a box that holds the spread Gaussian, the discrete quotient on [0, T] is the closed
    # form's, grows with T and stays below 2^{−1/q} times the sharp constant
    q, constant, amp, width = SHARP[n]
    bound = 2.0 ** (-1.0 / q) * constant
    grid = build_grid(n, N, R)
    phi = sample_profile(grid, {"kind": "gaussian", "amplitude": amp, "width": width})
    phases = _Phases(symbol_lattice(validate_symbol(np.eye(n).tolist()), grid))
    u_hat, l2 = _datum_spectrum(phi, grid), gaussian_l2(n, amp, width)
    assert lebesgue_norm(phi, 2.0) == pytest.approx(l2, rel=1e-14, abs=0.0)
    quotients = []
    for T in horizons:
        times = MultipointSpec(0.0, T).times(int(16 * T))
        blocks = _propagate(grid, phases, u_hat, times)
        quotients.append(_space_time_norm(blocks, grid.h, times[1] - times[0], [(q, q)]) / l2)
        expected = closed_form_mixed(np.eye(n), amp, width, times, q, q) / l2
        assert quotients[-1] == pytest.approx(expected, rel=1e-6, abs=0.0), T
    assert quotients == sorted(quotients) and quotients[-1] < bound
    assert bound - quotients[-1] < (bound - quotients[0]) / 4.0
