"""Constant-coefficient elliptic symbol L(ξ) = Σ aᵢⱼ ξᵢ ξⱼ.

The coefficient matrix a must be real symmetric positive definite, so that
M₁|ξ|² ≤ L(ξ) ≤ M₂|ξ|² with M₁, M₂ the extreme eigenvalues of a.  The free
evolution multiplies each Fourier mode by exp(-i t L(ξ)): plugging a plane
wave exp(i(ξ·x - L(ξ)t)) into i∂ₜu + Lu = 0 cancels exactly, which the test
suite checks by a finite-difference residual of linear.apply_propagator.
"""

from __future__ import annotations

import numpy as np

from .errors import NotEllipticError, NotSymmetricError

SYMMETRY_TOL = 1e-12
ELLIPTICITY_FLOOR = 1e-12


class EllipticSymbol:
    """Validated quadratic form: coefficients plus its ellipticity bounds."""

    __slots__ = ("a", "m1", "m2")

    def __init__(self, a: np.ndarray, m1: float, m2: float):
        self.a = a
        self.m1 = m1
        self.m2 = m2

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def __repr__(self):
        return f"EllipticSymbol(n={self.n}, m1={self.m1:.6g}, m2={self.m2:.6g})"


def validate_symbol(a) -> EllipticSymbol:
    """Check symmetry and positivity of the coefficient matrix.

    Accepts anything convertible to a square real matrix.  Asymmetry beyond
    1e-12 (absolute) raises NotSymmetricError; a smallest eigenvalue at or
    below 1e-12 raises NotEllipticError.  The stored matrix is symmetrized so
    aᵢⱼ = aⱼᵢ holds exactly afterwards.
    """
    arr = np.asarray(a)
    if np.iscomplexobj(arr):
        if np.any(arr.imag != 0.0):
            raise NotSymmetricError("coefficient matrix must be real")
        arr = arr.real
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise NotSymmetricError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NotSymmetricError("coefficient matrix entries must be finite")
    asym = np.max(np.abs(arr - arr.T))
    if asym > SYMMETRY_TOL:
        raise NotSymmetricError(f"asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}")
    sym = 0.5 * (arr + arr.T)
    sym.flags.writeable = False
    eigs = np.linalg.eigvalsh(sym)
    if eigs[0] <= ELLIPTICITY_FLOOR:
        raise NotEllipticError(
            f"smallest eigenvalue {eigs[0]:.3e} is at or below {ELLIPTICITY_FLOOR:.0e}"
        )
    return EllipticSymbol(sym, float(eigs[0]), float(eigs[-1]))
