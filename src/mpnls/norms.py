"""Discrete Lebesgue, mixed space-time, Sobolev and Strichartz norms.

Spatial norms use the physical quadrature weight h, time composition uses
trapezoidal weights on the uniform frame grid, and ∞-exponents are grid
maxima.  Admissibility arithmetic (2/q + n/r ≤ n/2, with (n,q,r) ≠ (2,2,∞))
is done in exact rational arithmetic so sharp pairs are detected exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BadExponentError,
    BadPowerError,
    EmptyPairSetError,
    InadmissiblePairError,
    NegativeSError,
    NonFiniteError,
)
from .grid import Field, Trajectory, forward_transform, inverse_transform

INF = math.inf

CLASS_TIE_TOL = 1e-12


def _exact(x) -> Fraction | float:
    """Exponent as an exact rational, or +inf."""
    if x == INF:
        return INF
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _reciprocal(x) -> Fraction:
    return Fraction(0) if x == INF else 1 / _exact(x)


# --- spatial and space-time Lebesgue -----------------------------------------


def lebesgue_norm(field: Field, r: float) -> float:
    """(h·Σ|u|^r)^{1/r}; grid maximum of |u| for r = ∞."""
    if not (r >= 1.0):
        raise BadExponentError(f"Lebesgue exponent must be >= 1, got {r}")
    mag = np.abs(field.values)
    if r == INF:
        return float(mag.max())
    rf = float(r)
    with np.errstate(over="ignore"):  # inf is the honest answer for diverging iterates
        return float((field.grid.h * np.sum(mag**rf)) ** (1.0 / rf))


def mixed_norm(traj: Trajectory, q: float, r: float) -> float:
    """L_t^q L_x^r norm of a trajectory with trapezoidal time weights."""
    if not (q >= 1.0):
        raise BadExponentError(f"time exponent must be >= 1, got {q}")
    frames = [lebesgue_norm(traj.frame(m), r) for m in range(traj.nt + 1)]
    if q == INF:
        return float(max(frames))
    qf = float(q)
    weights = np.ones(traj.nt + 1)
    weights[0] = weights[-1] = 0.5
    with np.errstate(over="ignore"):  # as in lebesgue_norm: a diverging iterate reads inf
        return float((traj.dt * np.sum(weights * np.asarray(frames) ** qf)) ** (1.0 / qf))


def sobolev_norm(field: Field, s: float, homogeneous: bool = True, p: float = 2.0) -> float:
    """Bessel/Riesz potential norm: multiplier ⟨ξ⟩^s, or |ξ|^s with 0 at ξ = 0."""
    if s < 0.0:
        raise NegativeSError(f"regularity s must be nonnegative, got {s}")
    if s > 2.0:
        raise BadExponentError(f"regularity s must be <= 2, got {s}")
    if not (p >= 1.0):
        raise BadExponentError(f"Lebesgue exponent must be >= 1, got {p}")
    if s == 0.0 and not homogeneous:
        return lebesgue_norm(field, p)
    spec = forward_transform(field)
    xi2 = field.grid.radial_freq_sq()
    if homogeneous:
        mult = xi2 ** (s / 2.0)  # 0^0 = 1, so s = 0 is the identity
    else:
        mult = (1.0 + xi2) ** (s / 2.0)
    filtered = inverse_transform(Field._wrap(field.grid, mult * spec.values))
    return lebesgue_norm(filtered, p)


def apply_riesz(field: Field, s: float) -> Field:
    """|∇|^s f: homogeneous multiplier |ξ|^s in frequency space."""
    if s < 0.0:
        raise NegativeSError(f"regularity s must be nonnegative, got {s}")
    if s == 0.0:
        return field
    spec = forward_transform(field)
    mult = field.grid.radial_freq_sq() ** (s / 2.0)
    return inverse_transform(Field._wrap(field.grid, mult * spec.values))


# --- admissibility and Strichartz --------------------------------------------


@dataclass(frozen=True)
class AdmissiblePair:
    q: object  # Fraction or math.inf
    r: object
    sharp: bool

    def as_floats(self) -> tuple[float, float]:
        return (float(self.q), float(self.r))

    def label(self) -> str:
        def fmt(x):
            return "inf" if x == INF else str(Fraction(x))

        return f"({fmt(self.q)},{fmt(self.r)})"


def is_admissible(n: int, q, r) -> str:
    """Classify an exponent pair: 'sharp', 'nonsharp' or 'rejected'."""
    if n < 1 or int(n) != n:
        raise BadExponentError(f"dimension must be a positive integer, got {n!r}")
    qe, re = _exact(q), _exact(r)
    if (qe != INF and qe < 2) or (re != INF and re < 2):
        raise BadExponentError(f"admissible exponents need q, r >= 2, got q={q}, r={r}")
    if (n, qe, re) == (2, 2, INF):
        return "rejected"
    lhs = 2 * _reciprocal(qe) + n * _reciprocal(re)
    target = Fraction(n, 2)
    if lhs > target:
        return "rejected"
    return "sharp" if lhs == target else "nonsharp"


def make_pair(n: int, q, r) -> AdmissiblePair:
    verdict = is_admissible(n, q, r)
    if verdict == "rejected":
        raise InadmissiblePairError(f"(q,r)=({q},{r}) is not admissible in dimension {n}")
    qe = INF if q == INF else _exact(q)
    re = INF if r == INF else _exact(r)
    return AdmissiblePair(qe, re, verdict == "sharp")


def canonical_pairs(n: int) -> list[AdmissiblePair]:
    """Finite stand-in for the supremum over all admissible pairs.

    (∞,2) plus the sharp pairs with q ∈ {2 (only for n > 2 with finite r),
    4, 6, 8, ∞}, deduplicated.  Fixed so repeated runs are comparable.
    """
    pairs: list[AdmissiblePair] = [make_pair(n, INF, 2)]
    q_list = [4, 6, 8]
    if n > 2:
        q_list.insert(0, 2)
    for q in q_list:
        denom = n * q - 4
        if denom == 0:
            r = INF
        else:
            r = Fraction(2 * n * q, denom)
            if r < 2:
                continue
        if n > 2 or q > 2 or r != INF:
            cand = make_pair(n, q, r)
            if cand.sharp and cand not in pairs:
                pairs.append(cand)
    return pairs


def beta(n: int, r, r_tilde) -> float:
    """Decay exponent β(r, r̃) = n/2 − 1 − (n/2)(1/r − 1/r̃)."""
    if not (r >= 1.0) or not (r_tilde >= 1.0):
        raise BadExponentError(f"exponents must be >= 1, got r={r}, r_tilde={r_tilde}")
    inv_r = 0.0 if r == INF else 1.0 / float(r)
    inv_rt = 0.0 if r_tilde == INF else 1.0 / float(r_tilde)
    return n / 2.0 - 1.0 - (n / 2.0) * (inv_r - inv_rt)


def strichartz_norm(traj: Trajectory, pairs) -> float:
    """Max of L_t^q L_x^r over the given admissible pairs."""
    pairs = list(pairs)
    if not pairs:
        raise EmptyPairSetError("strichartz_norm needs at least one pair")
    n = traj.grid.n
    best = 0.0
    for pair in pairs:
        if isinstance(pair, AdmissiblePair):
            q, r = pair.q, pair.r
        else:
            q, r = pair
        if is_admissible(n, q, r) == "rejected":
            raise InadmissiblePairError(f"(q,r)=({q},{r}) is not admissible in dimension {n}")
        best = max(best, mixed_norm(traj, float(q), float(r)))
    return best


# --- criticality and conserved functionals -----------------------------------


@dataclass(frozen=True)
class RegularityReport:
    s: float
    s_c: float
    classification: str  # subcritical | critical | supercritical


def critical_exponent(n: int, p: float, s: float) -> RegularityReport:
    """Scaling-critical regularity s_c = n/2 − 2/p and the class of (s, s_c)."""
    if not (p > 0.0):
        raise BadPowerError(f"power must be positive, got {p}")
    s_c = n / 2.0 - 2.0 / p
    if abs(s - s_c) <= CLASS_TIE_TOL:
        label = "critical"
    elif s > s_c:
        label = "subcritical"
    else:
        label = "supercritical"
    return RegularityReport(float(s), float(s_c), label)


def mass(field: Field) -> float:
    """M(u) = h·Σ|u|², the discrete L² mass."""
    return float(field.grid.h * np.sum(np.abs(field.values) ** 2))


def energy(field: Field, sym, nl=None) -> float:
    """Hamiltonian h·Σ [½ Σ aᵢⱼ ∂ᵢu ∂ⱼū − (λ/(p+2))|u|^{p+2}], spectral gradients.

    nl is a PowerNonlinearity (attributes lam, p) or None for the free case.
    The integrand is real for a real symmetric form; the residual imaginary
    part is asserted below 1e-10 of the energy scale.
    """
    g = field.grid
    spec = forward_transform(field)
    mesh = g.freq_mesh()
    grads = []
    for ax in mesh:
        grads.append(inverse_transform(Field._wrap(g, 1j * ax * spec.values)).values)
    a = sym.a
    quad = np.zeros(g.shape, dtype=np.complex128)
    for i in range(sym.n):
        for j in range(sym.n):
            if a[i, j] != 0.0:
                quad = quad + a[i, j] * grads[i] * np.conj(grads[j])
    density = 0.5 * quad
    if nl is not None and nl.lam != 0.0:
        density = density - (nl.lam / (nl.p + 2.0)) * np.abs(field.values) ** (nl.p + 2.0)
    total = g.h * np.sum(density)
    scale = max(1.0, abs(total.real))
    if abs(total.imag) > 1e-10 * scale:
        raise NonFiniteError(f"energy integrand not real: imag part {total.imag:.3e}")
    return float(total.real)


@dataclass(frozen=True)
class FrameObservables:  # per-frame columns of a solve report, one entry per frame
    mass: tuple
    energy: tuple
    l2: tuple
    linf: tuple
    sobolev_s: tuple  # homogeneous ‖|∇|^s u‖_{L²}


def frame_observables(traj: Trajectory, sym, nl, s: float) -> FrameObservables:
    """Mass, energy (nl as for `energy`), L², L^∞ and Ḣ^s norm of every frame: the
    only place these are computed, read by the Picard drifts and the solve CSV."""
    rows = [(mass(f), energy(f, sym, nl), lebesgue_norm(f, 2.0), lebesgue_norm(f, INF),
             sobolev_norm(f, s, homogeneous=True, p=2.0))
            for f in (traj.frame(m) for m in range(traj.nt + 1))]
    return FrameObservables(*zip(*rows))
