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
from .grid import Field, Trajectory, _stack_blocks, forward_transform, inverse_transform
from .symbol import symbol_lattice

INF = math.inf
_TINY = float(np.finfo(np.float64).tiny)  # the least normal double

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
    """(h·Σ|u|^r)^{1/r}; grid maximum of |u| for r = ∞: the one-frame case of `_frame_norms`."""
    return float(_frame_norms([field.values[None]], field.grid.h, [r])[r][0])


def mixed_norm(traj: Trajectory, q: float, r: float) -> float:
    """L_t^q L_x^r norm of a trajectory with trapezoidal time weights."""
    return _mixed_norm(_stack_blocks(traj.values), traj.grid.h, traj.dt, q, r)


def _mixed_norm(blocks, h: float, dt: float, q: float, r: float) -> float:
    """`mixed_norm` of frames `dt` apart, handed over a block at a time (`_frame_norms`)."""
    if not (q >= 1.0):
        raise BadExponentError(f"time exponent must be >= 1, got {q}")
    return _time_norm(_frame_norms(blocks, h, [r])[r], float(q), dt)


def _frame_norms(blocks, h: float, rs) -> dict:
    """{r: (h·Σ|u|^r)^{1/r}, or max|u| for r = ∞, of every frame} for each r ≥ 1 of rs, from
    frames handed over as `blocks`: stacks of frames in time order, such as `_stack_blocks` of
    a stack or the blocks of a `linear._propagate` pass.  One |u| per block and one sum of
    |u|^r per block and r; a frame whose sum reads 0 or ∞, or whose max|u|^r lies below the
    normal range, is rescaled by `_power_root`."""
    for r in rs:
        if not (r >= 1.0):
            raise BadExponentError(f"Lebesgue exponent must be >= 1, got {r}")
    out = {r: [] for r in rs}
    with np.errstate(over="ignore"):  # a norm that reads inf is rescaled by _power_root
        for block in blocks:
            mag = np.abs(block.reshape(len(block), -1))
            tops = mag.max(axis=1)
            for r, norms in out.items():
                if r == INF:
                    norms.extend(tops)
                    continue
                rf = float(r)
                subnormal = tops**rf < _TINY
                for i, total in enumerate(np.add.reduce(mag**rf, axis=1)):
                    norm = float((h * total) ** (1.0 / rf))
                    norms.append(norm if norm not in (0.0, INF) and not subnormal[i]
                                 else _power_root(mag[i], rf, h))
    return {r: np.array(norms, dtype=np.float64) for r, norms in out.items()}


def _time_norm(frames: np.ndarray, q: float, dt: float) -> float:
    """L^q in time of per-frame norms, trapezoidal weights; their maximum for q = ∞."""
    if q == INF:
        return float(max(frames))
    weights = np.ones(len(frames))
    weights[0] = weights[-1] = 0.5
    return _power_root(frames, q, dt, weights)


def _power_root(mag: np.ndarray, r: float, scale: float, weights=None) -> float:
    """(scale·Σ weights·mag^r)^{1/r} for mag >= 0.  When that reads 0 or ∞, or max(mag)^r lies
    below the normal range, and max(mag) is finite and nonzero, it is recomputed from
    mag/max(mag), so that it neither underflows, in whole or in part, nor overflows."""
    def root(m):
        return float((scale * np.sum(m**r if weights is None else weights * m**r)) ** (1.0 / r))

    with np.errstate(over="ignore"):  # inf is the honest answer for diverging iterates
        out = root(mag)
        top = mag.max()
        if 0.0 < top < INF and (out in (0.0, INF) or top**r < _TINY):
            return float(top) * root(mag / float(top))
        return out


def check_sobolev_order(s: float) -> None:
    """The Sobolev order bound of sobolev_norm and apply_riesz: s ∈ [0, 2]."""
    if s < 0.0:
        raise NegativeSError(f"regularity s must be nonnegative, got {s}")
    if s > 2.0:
        raise BadExponentError(f"regularity s must be <= 2, got {s}")


def sobolev_norm(field: Field, s: float) -> float:
    """The Ḣ^s norm ‖|∇|^s f‖_{L²}, through both transforms even at s = 0 (0^0 = 1).  A
    transform that overflows raises NonFiniteError."""
    filtered = _riesz(field, s)
    norm = lebesgue_norm(filtered, 2.0)
    if not math.isfinite(norm) and not np.isfinite(filtered.values).all():
        raise NonFiniteError("Sobolev norm is not finite: the field's transform overflowed")
    return norm


def apply_riesz(field: Field, s: float) -> Field:
    """|∇|^s f: homogeneous multiplier |ξ|^s in frequency space.  A transform that
    overflows raises NonFiniteError."""
    if s == 0.0:
        return field
    out = _riesz(field, s)
    if not np.isfinite(out.values).all():
        raise NonFiniteError(f"|grad|^{s} of the field is not finite: its transform overflowed")
    return out


def _riesz(field: Field, s: float) -> Field:
    """F⁻¹[|ξ|^s·F f] for s ∈ [0, 2] (`check_sobolev_order`), transformed without numpy
    warnings.  Its samples are not finite when a transform overflowed, which the caller judges."""
    check_sobolev_order(s)
    mult = field.grid.radial_freq_sq() ** (s / 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        spec = forward_transform(field)
        return inverse_transform(Field._wrap(field.grid, mult * spec.values))


# --- admissibility and Strichartz --------------------------------------------


@dataclass(frozen=True)
class AdmissiblePair:
    q: object  # Fraction or math.inf
    r: object
    sharp: bool

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

    (∞,2) plus the sharp pairs (q, 2nq/(nq−4)), r = ∞ when nq = 4, for q ∈ {2 (only for
    n > 2), 4, 6, 8}.  Fixed so repeated runs are comparable.
    """
    qs = ([2] if n > 2 else []) + [4, 6, 8]
    return [make_pair(n, INF, 2)] + [
        make_pair(n, q, INF if n * q == 4 else Fraction(2 * n * q, n * q - 4)) for q in qs]


def strichartz_norm(traj: Trajectory, pairs) -> float:
    """Max of L_t^q L_x^r over the given admissible pairs, all read from one |u| per frame."""
    pairs = [(p.q, p.r) if isinstance(p, AdmissiblePair) else tuple(p) for p in pairs]
    if not pairs:
        raise EmptyPairSetError("strichartz_norm needs at least one pair")
    for q, r in pairs:
        make_pair(traj.grid.n, q, r)  # refuses a pair that is not admissible in this dimension
    return _strichartz_norm(_stack_blocks(traj.values), traj.grid.h, traj.dt, pairs)


def _strichartz_norm(blocks, h: float, dt: float, pairs) -> float:
    """`strichartz_norm` over admissible (q, r) pairs of frames `dt` apart, handed over a block
    at a time (`_frame_norms`)."""
    norms = _frame_norms(blocks, h, dict.fromkeys(float(r) for _, r in pairs))
    return max(0.0, *(_time_norm(norms[float(r)], float(q), dt) for q, r in pairs))


# --- criticality and conserved functionals -----------------------------------


@dataclass(frozen=True)
class RegularityReport:
    s: float
    s_c: float
    classification: str  # subcritical | critical | supercritical


def check_power(p: float) -> None:
    """The power of a nonlinearity λ|u|ᵖu must be positive."""
    if not (p > 0.0):
        raise BadPowerError(f"power p must be positive, got {p}")


def critical_exponent(n: int, p: float, s: float) -> RegularityReport:
    """Scaling-critical regularity s_c = n/2 − 2/p and the class of (s, s_c)."""
    check_power(p)
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
    with np.errstate(over="ignore"):  # inf past the float range is the honest answer
        return float(field.grid.h * np.sum(np.abs(field.values) ** 2))


def energy(field: Field, sym, nl=None) -> float:
    """Hamiltonian h·Σ [½(𝓛u)ū − (λ/(p+2))|u|^{p+2}], 𝓛u = F⁻¹[L(ξ)û]: the one-frame case
    of `_hamiltonian`.  nl is a PowerNonlinearity (attributes lam, p) or None for the free case."""
    return _hamiltonian(field, symbol_lattice(sym, field.grid), nl)


def _hamiltonian(field: Field, larr: np.ndarray, nl) -> float:
    """The energy of one frame, as `energy` defines it, from L(ξ) on its lattice: one forward
    and one inverse transform in every dimension.  ½(𝓛u)ū sums to a real number for a real
    symmetric form; the residual imaginary part is asserted below 1e-10 of the energy scale,
    and the total finite."""
    g = field.grid
    with np.errstate(over="ignore", invalid="ignore"):  # judged on the total below
        lu = inverse_transform(Field._wrap(g, larr * forward_transform(field).values)).values
        density = lu * np.conj(field.values)
        density *= 0.5
        if nl is not None and nl.lam != 0.0:
            density -= (nl.lam / (nl.p + 2.0)) * np.abs(field.values) ** (nl.p + 2.0)
        total = g.h * np.sum(density)
    if not np.isfinite(total):
        raise NonFiniteError(f"energy is not finite: {total}")
    if abs(total.imag) > 1e-10 * max(1.0, abs(total.real)):
        raise NonFiniteError(f"energy integrand not real: imag part {total.imag:.3e}")
    return float(total.real)


@dataclass(frozen=True)
class FrameObservables:  # per-frame columns of a solve report, one entry per frame
    mass: tuple
    energy: tuple
    l2: tuple
    linf: tuple
    sobolev_s: tuple  # homogeneous ‖|∇|^s u‖_{L²}


def frame_observables(traj: Trajectory, larr: np.ndarray, nl, s: float) -> FrameObservables:
    """Mass, energy (nl as for `energy`, L(ξ) on the lattice as `symbol_lattice` builds it),
    L², L^∞ and Ḣ^s norm of every frame: the only place these are computed, read by the
    Picard drifts and the solve CSV."""
    norms = _frame_norms(_stack_blocks(traj.values), traj.grid.h, (2.0, INF))
    frames = (traj.frame(m) for m in range(traj.nt + 1))
    rows = [(mass(f), _hamiltonian(f, larr, nl), l2, linf, sobolev_norm(f, s))
            for f, l2, linf in zip(frames, norms[2.0].tolist(), norms[INF].tolist())]
    return FrameObservables(*zip(*rows))
