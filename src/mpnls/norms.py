"""Discrete Lebesgue, mixed space-time, Sobolev and Strichartz norms.

Spatial norms use the physical quadrature weight h, time composition uses
trapezoidal weights on the uniform frame grid, and ∞-exponents are grid
maxima.  Admissibility arithmetic (2/q + n/r ≤ n/2, with (n,q,r) ≠ (2,2,∞))
is done in exact rational arithmetic so sharp pairs are detected exactly.

`_observables` is the one reduction of a solve's solution, a block of frames at a time, and
`frame_observables` its stack case: per-frame columns and the Strichartz value from one |u|
and one |∇|^s u a frame.  It makes its lattice scratch, which both transforms write into, and
|ξ|^s once per pass, so that glibc no longer trims the heap after each 128² frame and faults
it back in on the next; the Ḣ^s column at s = 0 is still a forward/inverse round trip.
`_filtered` is the one |∇|^s filter of a frame and holds the one overflow check, and
`_space_time_norm` the one space-time norm: `mixed_norm`, `strichartz_norm` and the
contraction metric are its cases.
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
    return x if x == INF or isinstance(x, Fraction) else Fraction(x)


def _reciprocal(x) -> Fraction:
    return Fraction(0) if x == INF else 1 / _exact(x)


# --- spatial and space-time Lebesgue -----------------------------------------


def lebesgue_norm(field: Field, r: float) -> float:
    """(h·Σ|u|^r)^{1/r}; grid maximum of |u| for r = ∞: the one-frame case of `_frame_norms`."""
    return float(_frame_norms([field.values[None]], field.grid.h, {r: []})[r][0])


def mixed_norm(traj: Trajectory, q: float, r: float) -> float:
    """L_t^q L_x^r norm, q ≥ 1, of a trajectory with trapezoidal time weights."""
    if not (q >= 1.0):
        raise BadExponentError(f"time exponent must be >= 1, got {q}")
    return _space_time_norm(_stack_blocks(traj.values), traj.grid.h, traj.dt, [(q, r)])


def _frame_norms(blocks, h: float, out: dict) -> dict:
    """Extends, for each r ≥ 1 of `out`, the list out[r] by (h·Σ|u|^r)^{1/r}, or max|u| for
    r = ∞, of every frame, and returns `out`.  The frames are handed over as `blocks`: stacks
    of frames in time order, such as `_stack_blocks` of a stack or the blocks of a
    `linear._propagate` pass, or stacks of |u| itself, which is real; a pass that reduces a
    frame at a time keeps its columns in `out`.  One |u| per block and one sum of |u|^r per
    block and r; a frame whose sum reads 0 or ∞, or whose max|u|^r lies below the normal
    range, is rescaled by `_power_root`."""
    for r in out:
        if not (r >= 1.0):
            raise BadExponentError(f"Lebesgue exponent must be >= 1, got {r}")
    with np.errstate(over="ignore"):  # a norm that reads inf is rescaled by _power_root
        for block in blocks:
            mag = block.reshape(len(block), -1)
            mag = np.abs(mag) if np.iscomplexobj(mag) else mag
            tops = mag.max(axis=1)
            for r, norms in out.items():
                if r == INF:
                    norms.extend(tops.tolist())
                    continue
                rf = float(r)
                subnormal = tops**rf < _TINY
                for i, total in enumerate(np.add.reduce(mag**rf, axis=1)):
                    norm = float((h * total) ** (1.0 / rf))
                    norms.append(norm if norm not in (0.0, INF) and not subnormal[i]
                                 else _power_root(mag[i], rf, h))
    return out


def _time_norm(frames, q: float, dt: float) -> float:
    """L^q in time of per-frame norms, trapezoidal weights; their maximum for q = ∞."""
    if q == INF:
        return float(max(frames))
    weights = np.ones(len(frames))
    weights[0] = weights[-1] = 0.5
    return _power_root(np.asarray(frames), q, dt, weights)


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
    return lebesgue_norm(_filtered(field, _riesz(field.grid, s)), 2.0)


def apply_riesz(field: Field, s: float) -> Field:
    """|∇|^s f: homogeneous multiplier |ξ|^s in frequency space.  A transform that
    overflows raises NonFiniteError."""
    if s == 0.0:
        return field
    return _filtered(field, _riesz(field.grid, s))


def _riesz(grid, s: float) -> np.ndarray:
    """|ξ|^s on the lattice of `grid` for s ∈ [0, 2] (`check_sobolev_order`): the one filter."""
    check_sobolev_order(s)
    return grid.radial_freq_sq() ** (s / 2.0)


def _filtered(field: Field, mult: np.ndarray, scratch=None) -> Field:
    """F⁻¹[mult·F f] for the |ξ|^s of `_riesz`, both transforms and the product written into a
    `_Scratch` when given, transformed without numpy warnings.  Samples that are not finite,
    after a transform overflowed, raise NonFiniteError: every sample is scanned."""
    spectrum, product = (None, None) if scratch is None else (scratch.spectrum, scratch.product)
    with np.errstate(over="ignore", invalid="ignore"):
        product = np.multiply(mult, forward_transform(field, spectrum).values, out=product)
        filtered = inverse_transform(Field._wrap(field.grid, product), spectrum)
    if not np.isfinite(filtered.values).all():
        raise NonFiniteError("|grad|^s of the field is not finite: its transform overflowed")
    return filtered


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


def _check_dimension(n: int) -> None:
    if n < 1 or int(n) != n:
        raise BadExponentError(f"dimension must be a positive integer, got {n!r}")


def is_admissible(n: int, q, r) -> str:
    """Classify an exponent pair: 'sharp', 'nonsharp' or 'rejected'."""
    _check_dimension(n)
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
    return AdmissiblePair(_exact(q), _exact(r), verdict == "sharp")


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
    return _space_time_norm(_stack_blocks(traj.values), traj.grid.h, traj.dt, pairs)


def _space_time_norm(blocks, h: float, dt: float, pairs) -> float:
    """The one space-time norm: max over (q ≥ 1, r) of `pairs` of L_t^q L_x^r of frames `dt`
    apart, handed over a block at a time (`_frame_norms`); only `strichartz_norm` asks for
    admissible pairs."""
    return _pair_max(_frame_norms(blocks, h, {float(r): [] for _, r in pairs}), dt, pairs)


def _pair_max(norms: dict, dt: float, pairs) -> float:
    """max over (q, r) of `pairs` of L^q in time of `norms[r]`, unseeded: one pair keeps its NaN."""
    return max(_time_norm(norms[float(r)], float(q), dt) for q, r in pairs)


# --- criticality and conserved functionals -----------------------------------


@dataclass(frozen=True)
class RegularityReport:
    s: float
    s_c: float
    classification: str  # subcritical | critical | supercritical


def check_power(p: float) -> None:
    """The power of a nonlinearity λ|u|ᵖu must be positive and finite."""
    if not (0.0 < p < INF):
        raise BadPowerError(f"power p must be {'finite' if p == INF else 'positive'}, got {p}")


def critical_exponent(n: int, p: float, s: float) -> RegularityReport:
    """Scaling-critical regularity s_c = n/2 − 2/p and the class of (s, s_c), for a positive
    integer n and a finite s."""
    _check_dimension(n)
    check_power(p)
    if not math.isfinite(s):
        raise BadExponentError(f"regularity s must be finite, got {s}")
    s_c = n / 2.0 - 2.0 / p
    label = ("critical" if abs(s - s_c) <= CLASS_TIE_TOL
             else "subcritical" if s > s_c else "supercritical")
    return RegularityReport(float(s), float(s_c), label)


def mass(field: Field) -> float:
    """M(u) = h·Σ|u|², the discrete L² mass."""
    return _mass(field.grid.h, np.abs(field.values))


def _mass(h: float, mag: np.ndarray) -> float:
    """`mass` from |u|, which it squares in place."""
    with np.errstate(over="ignore"):  # inf past the float range is the honest answer
        return float(h * np.sum(np.square(mag, out=mag)))


def energy(field: Field, sym, nl=None) -> float:
    """Hamiltonian h·Σ [½(𝓛u)ū − (λ/(p+2))|u|^{p+2}], 𝓛u = F⁻¹[L(ξ)û]: the one-frame case
    of `_hamiltonian`.  nl is a PowerNonlinearity (attributes lam, p) or None for the free case."""
    return _hamiltonian(field, symbol_lattice(sym, field.grid), nl, _Scratch(field.grid))


class _Scratch:
    """The lattice buffers of an observables pass, written over frame after frame: |u|, the
    potential term, a spectrum that both transforms write into, the spectral product, then the
    density.  Transforms return views, which `Field._wrap` makes read-only, not the buffers."""

    def __init__(self, grid):
        self.mag, self.power = np.empty((2,) + grid.shape)
        self.spectrum, self.product = np.empty((2,) + grid.shape, dtype=np.complex128)


def _hamiltonian(field: Field, larr: np.ndarray, nl, scratch: _Scratch) -> float:
    """The energy of one frame, as `energy` defines it, from L(ξ) on its lattice: one forward
    and one inverse transform in every dimension, written over `scratch`, where |u| is left.
    ½(𝓛u)ū sums to a real number for a real symmetric form; the residual imaginary part is
    asserted below 1e-10 of the energy scale, and the total finite."""
    g = field.grid
    with np.errstate(over="ignore", invalid="ignore"):  # judged on the total below
        product = np.multiply(larr, forward_transform(field, scratch.spectrum).values,
                              out=scratch.product)
        lu = inverse_transform(Field._wrap(g, product), scratch.spectrum).values
        # numpy's complex product is not commutative to the bit (`linear._Phases`), but its
        # real part, all that the energy keeps, is
        conj = np.conjugate(field.values, out=product)  # the inverse has read the product
        density = np.multiply(lu, conj, out=conj)
        density *= 0.5
        mag = np.abs(field.values, out=scratch.mag)
        if nl is not None and nl.lam != 0.0:
            potential = np.power(mag, nl.p + 2.0, out=scratch.power)
            density -= np.multiply(nl.lam / (nl.p + 2.0), potential, out=potential)
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
    strichartz_value: float | None  # of |∇|^s u over the pairs asked for; None if none were


def frame_observables(traj: Trajectory, larr: np.ndarray, nl, s: float,
                      pairs=()) -> FrameObservables:
    """Mass, energy (nl as for `energy`, L(ξ) on the lattice as `symbol_lattice` builds it),
    L², L^∞ and Ḣ^s norm of every frame, and the Strichartz value of |∇|^s u over the admissible
    (q, r) `pairs`: the stack case of `_observables`."""
    return _observables(_stack_blocks(traj.values), traj.grid, traj.dt, larr, nl, s, pairs)


def _observables(blocks, g, dt: float, larr: np.ndarray, nl, s: float,
                 pairs=()) -> FrameObservables:
    """`frame_observables` of frames on `g`, `dt` apart, a block at a time: two forward and two
    inverse transforms a frame, into its `_Scratch`.  The |u| that `_hamiltonian` leaves gives
    L², L^∞ and, at s = 0, the Strichartz norms; the frame the Ḣ^s column filters, at s > 0."""
    rs = {float(r) for _, r in pairs}
    raw = {r: [] for r in {2.0, INF} | (rs if s == 0.0 else set())}
    riesz = {r: [] for r in {2.0} | (set() if s == 0.0 else rs)}
    scratch, mult, rows = _Scratch(g), _riesz(g, s), []
    for frame in (Field._wrap(g, values) for block in blocks for values in block):
        e = _hamiltonian(frame, larr, nl, scratch)
        _frame_norms([scratch.mag[None]], g.h, raw)  # |u|, before _mass squares it in place
        rows.append((_mass(g.h, scratch.mag), e))
        _frame_norms([_filtered(frame, mult, scratch).values[None]], g.h, riesz)
    value = _pair_max(raw if s == 0.0 else riesz, dt, pairs) if pairs else None
    return FrameObservables(*zip(*rows), tuple(raw[2.0]), tuple(raw[INF]), tuple(riesz[2.0]),
                            value)
