"""The scaling law of the NLS holds in the discrete multipoint solver.

If u solves i∂ₜu + Lu + λ|u|ᵖu = 0, so does u_μ(t, x) = μ^{2/p}·u(μ²t, μx).  On the lattice
this maps one problem onto another: the half-width R/μ, the times t0/μ², T/μ² and λₖ/μ², the
Gaussian's width/μ and amplitude μ^{2/p}·A, with λ, the αₖ, N and nt fixed.  The lattice
points and frequencies scale by 1/μ and μ, so L(ξ) scales by μ² and every phase τ·L(ξ) keeps
its bits, and frame m of the mapped solve is μ^{2/p} times frame m of the base one.  Where μ
and μ^{2/p} are powers of two every product of the solve scales exactly, so the trajectories
agree bit for bit.  The metric L_t^{p+2} L_x^r scales by μ^e, e = 2/p − 2/(p+2) − n/r, so
the mapped solve stops on tol_fp·μ^e (e = 0 for the clamped 1-D cubic metric), and η of
|∇|^s scales by μ^{e+s}.
"""

import numpy as np
import pytest

from mpnls import (MultipointSpec, PowerNonlinearity, build_grid, metric_exponent,
                   sample_profile, smallness_indicator, solve_nls_multipoint, validate_symbol)
from mpnls.nonlinear import DEFAULT_TOL_FP

# n: (a, p, N, R, amplitude); the other parameters are shared
CASES = {
    1: ([[1.0]], 2.0, 128, 10.0, 0.5),
    2: ([[1.0, 0.2], [0.2, 1.5]], 1.0, 48, 8.0, 0.3),
}
T0, T, LAM, ALPHA, WIDTH, NT = 0.0, 1.0, 0.5, 0.3, 1.0, 40
MUS = [2.0, 0.5]


def problem(n, mu):
    """The base problem of dimension n mapped by μ: (sym, grid, mp, φ, nl)."""
    a, p, N, R, amp = CASES[n]
    grid = build_grid(n, N, R / mu)
    phi = sample_profile(grid, {"kind": "gaussian", "amplitude": mu ** (2.0 / p) * amp,
                                "width": WIDTH / mu, "center": [0.0] * n})
    mp = MultipointSpec(T0 / mu**2, T / mu**2, ((ALPHA, LAM / mu**2),))
    return validate_symbol(a), grid, mp, phi, PowerNonlinearity(-1.0, p)


def exponent(n, p):
    """e = 2/p − 2/(p+2) − n/r of the metric's scaling."""
    return 2.0 / p - 2.0 / (p + 2.0) - n / metric_exponent(n, p)[0]


@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("n", sorted(CASES))
def test_a_mapped_solve_is_the_scaled_trajectory(n, mu):
    p = CASES[n][1]
    base, base_diags = solve_nls_multipoint(*problem(n, 1.0), nt=NT)
    tol = DEFAULT_TOL_FP * mu ** exponent(n, p)
    mapped, diags = solve_nls_multipoint(*problem(n, mu), nt=NT, tol_fp=tol)
    assert base_diags.iterations > 2  # the Picard loop runs, not only the linear solve
    assert diags.iterations == base_diags.iterations
    assert np.array_equal(mapped.values, mu ** (2.0 / p) * base.values)
    assert diags.mass_drift == base_diags.mass_drift


@pytest.mark.parametrize("s", [0.0, 0.5])
@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("n", sorted(CASES))
def test_eta_scales_by_the_metric_exponent_plus_s(n, mu, s):
    def eta(mu):
        sym, grid, mp, phi, nl = problem(n, mu)
        return smallness_indicator(sym, grid, phi, s, nl, mp.T, t0=mp.t0, nt=NT)

    scale = mu ** (exponent(n, CASES[n][1]) + s)
    assert eta(mu) == pytest.approx(scale * eta(1.0), rel=1e-14, abs=0.0)
