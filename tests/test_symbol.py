import numpy as np
import pytest

from mpnls import (
    NotEllipticError,
    NotSymmetricError,
    apply_propagator,
    build_grid,
    sample_profile,
    symbol_lattice,
    validate_symbol,
)

# R = π puts the lattice at ξ = j; R = 10π at ξ = j/10
GRID2 = build_grid(2, 16, np.pi)


def quadratic_eigenvalues(a):
    """Oracle: roots of the 2x2 characteristic polynomial t^2 - tr·t + det."""
    tr = a[0][0] + a[1][1]
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    disc = np.sqrt(tr * tr - 4.0 * det)
    return sorted([(tr - disc) / 2.0, (tr + disc) / 2.0])


def test_identity_bounds():
    sym = validate_symbol([[1.0, 0.0], [0.0, 1.0]])
    assert sym.m1 == 1.0 and sym.m2 == 1.0


def test_offdiagonal_bounds_match_characteristic_polynomial():
    a = [[2.0, 1.0], [1.0, 2.0]]
    lo, hi = quadratic_eigenvalues(a)  # (1, 3)
    sym = validate_symbol(a)
    assert sym.m1 == pytest.approx(lo, abs=1e-14)
    assert sym.m2 == pytest.approx(hi, abs=1e-14)
    assert (sym.m1, sym.m2) == pytest.approx((1.0, 3.0), abs=1e-13)


def test_indefinite_rejected():
    with pytest.raises(NotEllipticError):
        validate_symbol([[1.0, 0.0], [0.0, -1.0]])


def test_semidefinite_rejected():
    with pytest.raises(NotEllipticError):
        validate_symbol([[1.0, 1.0], [1.0, 1.0]])


def test_asymmetric_rejected():
    with pytest.raises(NotSymmetricError):
        validate_symbol([[1.0, 0.5], [0.2, 1.0]])


def test_tiny_asymmetry_symmetrized():
    sym = validate_symbol([[1.0, 0.5 + 5e-13], [0.5, 1.0]])
    assert sym.a[0, 1] == sym.a[1, 0]


def test_nonsquare_and_complex_rejected():
    with pytest.raises(NotSymmetricError):
        validate_symbol([[1.0, 0.0]])
    with pytest.raises(NotSymmetricError):
        validate_symbol([[1.0 + 1e-3j]])
    with pytest.raises(NotSymmetricError):
        validate_symbol([[np.nan]])


def test_jacobi_3x3_known_spectrum():
    # rotate diag(1, 2, 5) by a fixed orthogonal matrix; spectrum is the oracle
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a = q @ np.diag([1.0, 2.0, 5.0]) @ q.T
    a = 0.5 * (a + a.T)
    sym = validate_symbol(a)
    assert sym.m1 == pytest.approx(1.0, abs=1e-10)
    assert sym.m2 == pytest.approx(5.0, abs=1e-10)


def lattice_value(larr, grid, xi):
    """L at the lattice frequency xi, read off symbol_lattice."""
    return larr[tuple(int(np.argmin(np.abs(ax - x))) for ax, x in zip(grid.freq_axes, xi))]


def test_eval_symbol_values(sym2):
    ident = validate_symbol(np.eye(2))
    assert lattice_value(symbol_lattice(ident, GRID2), GRID2, [3.0, 4.0]) == pytest.approx(
        25.0, abs=1e-13)
    larr = symbol_lattice(sym2, GRID2)
    assert lattice_value(larr, GRID2, [1.0, 1.0]) == pytest.approx(6.0, abs=1e-13)
    assert lattice_value(larr, GRID2, [0.0, 0.0]) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_two_sided_ellipticity_bound(n, rng):
    b = rng.standard_normal((n, n))
    a = b @ b.T + 0.5 * np.eye(n)
    sym = validate_symbol(a)
    xi = rng.standard_normal((10_000, n)) * 10.0
    quad = np.einsum("ki,ij,kj->k", xi, sym.a, xi)
    mag2 = np.sum(xi**2, axis=1)
    slack = 1e-12 * np.maximum(1.0, quad)
    assert np.all(quad >= sym.m1 * mag2 - slack)
    assert np.all(quad <= sym.m2 * mag2 + slack)


# --- the propagator multiplier e^{-itL(ξ)}, read off apply_propagator ------------------


def multiplier(sym, grid, t, mode):
    """U_L(t) applied to the lattice plane wave of `mode`, divided by that wave:
    e^{-itL(ξ)} at every grid point, up to transform roundoff."""
    pw = sample_profile(grid, {"kind": "plane_wave", "amplitude": 1.0, "mode": list(mode)})
    return apply_propagator(sym, grid, t, pw).values / pw.values


def test_multiplier_time_zero(sym2):
    assert np.max(np.abs(multiplier(sym2, GRID2, 0.0, [3, -1]) - 1.0)) < 1e-14


def test_multiplier_exact_half_period(sym1, grid1):
    # L(1) = 1, t = pi: exp(-i*pi) = -1 (single-mode ODE solution)
    assert np.max(np.abs(multiplier(sym1, grid1, np.pi, [1]) + 1.0)) < 1e-14


def test_multiplier_unimodular_group_law(sym2, rng):
    for _ in range(200):
        mode = rng.integers(-4, 5, 2)
        t, s = rng.standard_normal(2)
        m_t = multiplier(sym2, GRID2, t, mode)
        m_s = multiplier(sym2, GRID2, s, mode)
        m_ts = multiplier(sym2, GRID2, t + s, mode)
        assert np.max(np.abs(np.abs(m_t) - 1.0)) < 1e-14
        assert np.max(np.abs(m_ts - m_t * m_s)) < 1e-13
        assert np.max(np.abs(m_t * multiplier(sym2, GRID2, -t, mode) - 1.0)) < 1e-13


def test_multiplier_solves_the_mode_ode(sym2):
    # residual oracle for the sign convention: i m'(t) = L(xi) m(t), at xi = (0.7, -0.4)
    grid, mode = build_grid(2, 16, 10.0 * np.pi), [7, -4]
    lval = lattice_value(symbol_lattice(sym2, grid), grid, [0.7, -0.4])
    t, delta = 0.9, 1e-5
    deriv = (multiplier(sym2, grid, t + delta, mode)
             - multiplier(sym2, grid, t - delta, mode)) / (2.0 * delta)
    residual = 1j * deriv - lval * multiplier(sym2, grid, t, mode)
    assert np.max(np.abs(residual)) < 1e-8 * max(1.0, lval**2)
