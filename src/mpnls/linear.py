"""Linear multipoint solver: u(t0) = φ + Σ αₖ u(λₖ) for i∂ₜu + Lu = F.

Everything is resolved per Fourier mode.  With the propagator phase
e^{-i t L(ξ)} and the Duhamel term Ĝ(t,ξ) = -i∫ₜ₀ᵗ e^{-i(t-τ)L(ξ)} F̂(τ,ξ) dτ,
the multipoint condition becomes an algebraic equation for the datum û₀:

    û₀·D(ξ) = φ̂(ξ) + Σₖ αₖ Ĝ(λₖ,ξ),   D(ξ) = 1 - Σₖ αₖ e^{-i(λₖ-t0)L(ξ)},

after which the whole trajectory is a single propagation pass.  Modes where D(ξ) nearly
vanishes make the problem ill-posed (resonance); the solver refuses to divide when
min|D| ≤ eps_res, which `check_eps_res` holds positive.  `_denominator` is the one build of
D(ξ) and min|D|, and `min_abs_denominator` its one public reader; a solve's report reads the
min|D| that its core compared with eps_res (`_MultipointCore.min_abs`,
`PicardDiagnostics.min_abs_denominator`).  The Duhamel integral uses the incremental
trapezoidal recurrence, second order in Δt and linear in the number of frames.

Every solve, here and in the nonlinear module, runs on one private multipoint core.
`_MultipointCore`, the spectral context of a solve, builds L(ξ), its phases, the Duhamel
step e^{-iΔtL} and D(ξ) once, makes the only datum solve (`solve`, stacked by `frames`) and
runs every pass on its time axis through `blocks`.  Its `duhamel` is the one reader and
checker of a forcing and makes the only forward transform of forcing frames, one call per
`grid._frame_blocks` block.  The free evolutions of `apply_propagator` and of
the two verifiers solve nothing and build no core.  `_datum_spectrum` is the only transform
of a datum, and the one check that it lives on the grid of its pass.
`_propagate` is the one propagation kernel: it makes the frames a `_frame_blocks` block at a
time, one inverse transform per block, and hands each block to its reader, which writes it
into a stack or, needing only norms (a Strichartz sample, η), reduces it before the next
block is made.  It checks each block for NaN and Inf, and the passes leave an overflow to
that check.  Every phase e^{-iτL(ξ)} is a row of `_Phases.table`, the one exponential of the
distinct values of L(ξ), gathered onto the lattice: a row per time for the kernel, a one-row
table for D(ξ) and the Duhamel step.  `MultipointSpec.times` builds the time axis on the one
step, `grid.time_step`, and `_check_on_axis` checks a trajectory against it.  `_Duhamel` is the
one maker of Ĝ, for every forcing: the recurrence `_duhamel_rows` runs over F̂ rows that the
forcing's fill writes a block at a time, as it reaches them.  Stacked, those rows are the one
buffer of the pass: F̂, then Ĝ, then the frames.  Iterated, each pass makes Ĝ anew in two block
buffers, so a solve read by blocks holds no trajectory, and a Picard step can write Φ's frames
over its iterate: each pass's fill reads a block of the iterate before the propagation makes
that block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadExponentError,
    GridMismatchError,
    LambdaOffGridError,
    NonFiniteError,
    NonFiniteInputError,
    NonpositiveTimeError,
    ResonanceError,
)
from .grid import (Field, SpectralGrid, Trajectory, _frame_blocks, _frame_product, _read_only,
                   _stack_blocks, check_band, check_time, forward_transform, inverse_transform,
                   random_band_limited, time_step)
from .norms import _TINY, _space_time_norm, canonical_pairs, lebesgue_norm
from .symbol import EllipticSymbol, symbol_lattice

DEFAULT_EPS_RES = 1e-8
LAMBDA_GRID_TOL = 1e-12
DEFAULT_STRICHARTZ_SAMPLES = 20
DEFAULT_STRICHARTZ_SEED = 0
DEFAULT_STRICHARTZ_BAND = 8


@dataclass(frozen=True)
class MultipointSpec:
    """Base time, horizon, and the coupling terms (αₖ, λₖ): αₖ finite, λₖ ∈ (t0, T]."""

    t0: float
    T: float
    points: tuple = ()

    def __post_init__(self):
        check_time(self.t0)
        check_time(self.T)
        if not (self.T > self.t0):
            raise ValueError(f"horizon T={self.T} must exceed t0={self.t0}")
        pts = tuple((complex(a), float(lam)) for a, lam in self.points)
        for alpha, lam in pts:
            if not np.isfinite(alpha):
                raise ValueError(f"alpha must be finite, got {alpha}")
            if not (self.t0 < lam <= self.T):
                raise ValueError(f"lambda out of (t0,T]=({self.t0},{self.T}]: {lam}")
        if len({lam for _, lam in pts}) != len(pts):
            raise ValueError("lambda_k values must be distinct")
        object.__setattr__(self, "points", pts)

    def times(self, nt: int) -> np.ndarray:
        """The time axis t0 + k·(T−t0)/nt, k = 0..nt, of nt ≥ 1 uniform intervals, whose
        step `time_step` checks."""
        time_step(self.t0, self.T, nt)
        return np.linspace(self.t0, self.T, nt + 1)

    @property
    def time_tol(self) -> float:  # 1e-12 of max(1, |t0|, |T|): a grid time has an ulp of them
        return LAMBDA_GRID_TOL * max(1.0, abs(self.t0), abs(self.T))

    def frame_indices(self, nt: int) -> list[int]:
        """Frame index k of each λ on the time grid t0 + k·(T−t0)/nt; a λ farther than
        `time_tol` from every grid time raises LambdaOffGridError.  Grid time k is read as
        `times` has it, t0 + k·Δt or T at k = nt, with no axis built."""
        dt = time_step(self.t0, self.T, nt)
        idxs = []
        for _, lam in self.points:
            idx = int(round((lam - self.t0) / dt))
            grid_time = self.T if idx == nt else self.t0 + idx * dt
            if idx < 0 or idx > nt or abs(grid_time - lam) > self.time_tol:
                raise LambdaOffGridError(f"lambda={lam} is not on the time grid t0 + k*(T-t0)/nt "
                                         f"(t0={self.t0}, T={self.T}, nt={nt})")
            idxs.append(idx)
        return idxs


@dataclass(frozen=True, eq=False)  # eq=False: no elementwise == of the envelope
class SeparableForcing:
    """A forcing F(tₘ, x) = envelope[m]·profile(x) on a solve's time axis, one finite envelope
    value per frame tₘ.  The solve transforms the profile once, and F̂ = envelope ⊗ φ̂_f is its
    one forcing stack."""

    profile: Field
    envelope: np.ndarray

    def __post_init__(self):
        env = np.array(self.envelope, dtype=np.complex128, copy=True)
        if env.ndim != 1:
            raise GridMismatchError(f"forcing envelope must be 1-D, got shape {env.shape}")
        if not np.isfinite(env).all():
            raise NonFiniteInputError("forcing envelope contains NaN or Inf")
        object.__setattr__(self, "envelope", _read_only(env))


def apply_propagator(sym: EllipticSymbol, grid: SpectralGrid, t: float, f: Field) -> Field:
    """Free evolution U_L(t)f: multiply each mode by e^{-i t L(ξ)}."""
    check_time(t)
    phases = _Phases(symbol_lattice(sym, grid))
    return Field._wrap(grid, next(_propagate(grid, phases, _datum_spectrum(f, grid), [t]))[0])


def min_abs_denominator(sym: EllipticSymbol, grid: SpectralGrid, mp: MultipointSpec) -> float:
    """min|D(ξ)| over the lattice, the number a solve compares with eps_res."""
    return _denominator(_Phases(symbol_lattice(sym, grid)), mp)[1]


def check_eps_res(eps_res: float) -> None:
    """The resonance threshold eps_res is positive: min|D| ≤ eps_res refuses the solve."""
    if not (eps_res > 0.0):
        raise ValueError(f"eps_res must be positive, got {eps_res}")


# --- the multipoint core --------------------------------------------------------


class _Phases:
    """The one evaluator of e^{-iτL(ξ)}: the exponential of each distinct value of L(ξ),
    gathered onto the lattice.

    L(ξ) = Σ aᵢⱼξᵢξⱼ is even, and L(−ξ) = L(ξ) holds bit for bit wherever −ξ is on the
    lattice (off the Nyquist lines): the frequency axes are exact negatives there, and
    each term keeps its bits when both of its factors change sign.  So about half of the
    lattice values are distinct, and a phase or a table of them is about half the size,
    while every lattice point still gets the exponential of the same double.  Products
    with a phase are taken on the lattice: numpy's complex product is not commutative to
    the bit, and it swaps the operands of a temporary of 256 KiB or more to reuse it.
    """

    def __init__(self, larr: np.ndarray):
        self.values, where = np.unique(larr, return_inverse=True)
        self.where = where.reshape(larr.shape)

    def table(self, times, t0: float) -> np.ndarray:
        """e^{-i(tₘ-t0)L} for every tₘ and distinct L, row m for tₘ, the one exponential of a
        phase: about half a trajectory array for many passes on one axis.  It is built in its
        own buffer, with the bits of exp(-1j·(tₘ-t0)L): exponent 0 + i·(-(tₘ-t0)L), row by row
        (one strided 2-D product would buffer)."""
        tab = np.zeros((len(times), len(self.values)), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):  # its readers judge an overflow
            for row, tau in zip(tab.imag, times - t0):
                np.multiply(-tau, self.values, out=row)
            return np.exp(tab, out=tab)

    def __call__(self, tau: float) -> np.ndarray:
        """e^{-iτL(ξ)} on the lattice, for a single phase: the one-row table, gathered."""
        return self.table(np.array([tau]), 0.0)[0][self.where]


def _denominator(phases: _Phases, mp: MultipointSpec) -> tuple[np.ndarray, float]:
    """D(ξ) = 1 − Σ αₖ e^{-i(λₖ-t0)L(ξ)} from the phases of one L(ξ), read-only, and its
    minimum modulus: the one build of both.  A D(ξ) that is not finite raises NonFiniteError."""
    d = np.ones(phases.where.shape, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # judged below
        for alpha, lam in mp.points:  # α times a lattice phase, as numpy rounds it (see _Phases)
            d = d - alpha * phases(lam - mp.t0)
        if not np.isfinite(d).all():
            raise NonFiniteError("multipoint denominator D(xi) is not finite")
        return _read_only(d), float(np.min(np.abs(d)))


def _datum_spectrum(phi: Field, grid: SpectralGrid, what: str = "datum") -> np.ndarray:
    """φ̂, the one forward transform of a datum φ that lives on `grid`, the grid of its pass, or
    else GridMismatchError naming it `what`.  An overflow is left to `_propagate`'s check."""
    if phi.grid != grid:
        raise GridMismatchError(f"{what} does not live on the given grid")
    with np.errstate(over="ignore", invalid="ignore"):
        return forward_transform(phi).values


def _duhamel_rows(step: np.ndarray, dt: float, fhat):
    """Yields Ĝ(tₘ) = S·Ĝ(tₘ₋₁) − (iΔt/2)(S·F̂ₘ₋₁ + F̂ₘ), Ĝ(t₀) = 0, for S = e^{-iΔtL}, in place
    over the rows F̂ₘ of `fhat`, in its reader's errstate; Ĝ(tₘ₋₁)'s row outlasts F̂ₘ's filling."""
    half = -0.5j * dt
    rows = iter(fhat)
    ghat = next(rows)
    prev, term = ghat.copy(), np.empty_like(ghat)
    ghat[...] = 0.0
    yield ghat
    for row in rows:
        np.multiply(step, prev, out=term)
        np.add(term, row, out=term)
        np.multiply(half, term, out=term)
        prev[...] = row
        np.multiply(step, ghat, out=row)
        np.add(row, term, out=row)
        ghat = row
        yield ghat


def _duhamel_spectral(step: np.ndarray, dt: float, fhat):
    """Overwrites the rows F̂ of `fhat`, a stack, say, with Ĝ by `_duhamel_rows`; returns `fhat`."""
    for _ in _duhamel_rows(step, dt, fhat):
        pass
    return fhat


class _Duhamel:
    """The one maker of Ĝ: each pass runs `_duhamel_rows` over the F̂ rows that `fill(rows, out)`
    writes for each `_frame_blocks` block as the recurrence reaches it, in a new stack (`stack`)
    or, iterated, in two block buffers that take turns."""

    def __init__(self, core: _MultipointCore, fill):
        self.step, self.dt, self.fill = core.step, core.dt, fill
        self.shape = (core.nt + 1,) + core.grid.shape
        self.slices = list(_frame_blocks(core.nt + 1, core.phi_hat.nbytes))

    def _fhat(self, blocks):
        for rows, block in zip(self.slices, blocks):
            self.fill(rows, block)
            yield from block

    def stack(self) -> np.ndarray:
        ghat = np.empty(self.shape, dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):  # _propagate judges an overflow
            _duhamel_spectral(self.step, self.dt, self._fhat(_stack_blocks(ghat)))
        return ghat

    def __iter__(self):
        pair = np.empty((2, self.slices[0].stop) + self.shape[1:], dtype=np.complex128)
        frames = range(self.shape[0])  # a slice of it has the length of the block
        blocks = [pair[i % 2][:len(frames[r])] for i, r in enumerate(self.slices)]
        ghat = _duhamel_rows(self.step, self.dt, self._fhat(blocks))
        for block in blocks:
            for _ in block:
                next(ghat)
            yield block


def _propagate(grid: SpectralGrid, phases: _Phases, u_hat: np.ndarray, times,
               t0: float = 0.0, ghat=None, table: np.ndarray | None = None):
    """The propagation kernel: yields the frames F⁻¹[e^{-i(tₘ-t0)L(ξ)}û + Ĝ(tₘ)] one
    `_frame_blocks` block at a time, each to be read before the next is made.

    A block's phase rows, of `table` (`phases.table` on `times`) or else of `phases.table`
    on its own times, are gathered onto the lattice in the pass's one block buffer, times û,
    plus the block of Ĝ that `ghat` yields, under this errstate; the block then gets one
    `inverse_transform` in place.  A block with a frame that is not finite raises
    NonFiniteError naming the first such frame.
    """
    times = np.asarray(times, dtype=np.float64)
    blocks = list(_frame_blocks(len(times), u_hat.nbytes))
    buffer = np.empty((blocks[0].stop - blocks[0].start,) + grid.shape, dtype=np.complex128)
    ghat = None if ghat is None else iter(ghat)
    for rows in blocks:
        with np.errstate(over="ignore", invalid="ignore"):  # the frame check judges an overflow
            tab = phases.table(times[rows], t0) if table is None else table[rows]
            block = buffer[:len(tab)]
            np.take(tab, phases.where, axis=1, out=block, mode="clip")  # "raise" buffers `out`
            _frame_product(block, u_hat, block)
            if ghat is not None:
                np.add(block, next(ghat), out=block)
            inverse_transform(Field._wrap(grid, block), out=block)
        finite = np.isfinite(block.reshape(len(block), -1)).all(axis=1)
        if not finite.all():
            t = times[rows][np.argmin(finite)]
            raise NonFiniteError(f"propagated frame at t={t} is not finite")
        yield block


def _check_on_axis(traj: Trajectory, grid: SpectralGrid, mp: MultipointSpec, nt: int,
                   what: str) -> None:
    """`traj` is on `grid`, spans mp's [t0, T] to within `mp.time_tol` and has nt steps."""
    if traj.grid != grid:
        raise GridMismatchError(f"{what} lives on {traj.grid!r}, not on {grid!r}")
    if abs(traj.t0 - mp.t0) > mp.time_tol or abs(traj.T - mp.T) > mp.time_tol:
        raise GridMismatchError(f"{what} spans [{traj.t0},{traj.T}], not [{mp.t0},{mp.T}]")
    if traj.nt != nt:
        raise GridMismatchError(f"{what} has nt={traj.nt}, not nt={nt}")


class _MultipointCore:
    """The spectral context of a solve: checks once, then resolves û₀ and propagates it, a
    block at a time (`solve`) or into a stack (`frames`).

    Checks eps_res and the time axis, and builds once the phases of L(ξ), the Duhamel step
    e^{-iΔtL}, D(ξ), the frame indices of the λₖ and φ̂ (`_datum_spectrum` checks its grid); it
    refuses a D(ξ) with min|D| ≤ eps_res, and keeps that min|D|, `min_abs`, for the report.
    `duhamel` reads and checks a forcing.  phase_table=True precomputes e^{-i(tₘ-t0)L(ξ)} for
    every frame, for a caller that propagates many times.
    """

    def __init__(self, sym: EllipticSymbol, grid: SpectralGrid, mp: MultipointSpec, phi: Field,
                 nt: int, eps_res: float, phase_table: bool = False):
        check_eps_res(eps_res)
        self.grid = grid
        self.mp = mp
        self.nt = nt
        self.times = mp.times(nt)
        self.dt = time_step(mp.t0, mp.T, nt)
        self.lam_idx = mp.frame_indices(nt)
        self.larr = symbol_lattice(sym, grid)
        self.phases = _Phases(self.larr)
        self.denom, self.min_abs = _denominator(self.phases, mp)
        if self.min_abs <= eps_res:
            raise ResonanceError(f"multipoint denominator min |D(xi)| = {self.min_abs:.6e} <= "
                                 f"eps_res = {eps_res:.1e}", min_abs=self.min_abs, eps_res=eps_res)
        self.step = self.phases(self.dt)
        self.phi_hat = _datum_spectrum(phi, grid)
        self.table = self.phases.table(self.times, mp.t0) if phase_table else None

    def duhamel(self, forcing) -> _Duhamel:
        """The `_Duhamel` of a forcing: the one reader and checker of a forcing, and the one fill
        of its F̂.  A SeparableForcing has one envelope value per frame: F̂ₘ = envelope[m]·φ̂_f,
        on one transform of its profile, a datum of the pass.  A Trajectory on the axis, or a
        writer `forcing(rows, out)` of the frames F(tₘ), m in `rows` (Φ's), is transformed."""
        if isinstance(forcing, SeparableForcing):
            if len(forcing.envelope) != self.nt + 1:
                raise GridMismatchError(f"forcing envelope has {len(forcing.envelope)} values, "
                                        f"not one per frame, nt + 1 = {self.nt + 1}")
            spec = _datum_spectrum(forcing.profile, self.grid, what="forcing profile")
            def fill(rows, out):  # a broadcast product buffers
                for value, row in zip(forcing.envelope[rows], out):
                    np.multiply(value, spec, out=row)
        elif isinstance(forcing, Trajectory):
            _check_on_axis(forcing, self.grid, self.mp, self.nt, "forcing")
            def fill(rows, out):
                forward_transform(Field._wrap(self.grid, forcing.values[rows]), out=out)
        else:
            def fill(rows, out):
                forcing(rows, out)
                forward_transform(Field._wrap(self.grid, out), out=out)
        return _Duhamel(self, fill)

    def blocks(self, u_hat: np.ndarray, ghat=None):
        """`_propagate` of û, plus Ĝ of `duhamel`, on the time axis, by the table if any."""
        return _propagate(self.grid, self.phases, u_hat, self.times, self.mp.t0, ghat, self.table)

    def solve(self, ghat=None):
        """The `blocks` of u(tₘ) = U_L(tₘ-t0)u₀ + G(tₘ), from the datum solve
        û₀ = [φ̂ + Σₖ αₖ Ĝ(λₖ)] / D(ξ).  Ĝ, a `_Duhamel` or the blocks of its stack, is read by
        blocks, in a pass that stops at the last λₖ, then alongside the propagation."""
        rhs = self.phi_hat
        with np.errstate(over="ignore", invalid="ignore"):  # _propagate judges an overflow
            if ghat is not None and self.lam_idx:
                rows = zip(range(max(self.lam_idx) + 1), (row for b in ghat for row in b))
                at = {m: row.copy() for m, row in rows if m in self.lam_idx}
                for (alpha, _), idx in zip(self.mp.points, self.lam_idx):
                    rhs = rhs + alpha * at[idx]
            u0_hat = rhs / self.denom
        return self.blocks(u0_hat, ghat)

    def frames(self, ghat: _Duhamel | None = None) -> np.ndarray:
        """The frames of `solve` in a stack: over the stack of Ĝ, if any."""
        out = np.empty((self.nt + 1,) + self.grid.shape, complex) if ghat is None else ghat.stack()
        ghat = None if ghat is None else list(_stack_blocks(out))  # frees the maker and its fill
        for rows, block in zip(_frame_blocks(len(out), out[0].nbytes), self.solve(ghat)):
            out[rows] = block
        return out

    def wrap(self, frames: np.ndarray) -> Trajectory:
        """The read-only trajectory view of a stack of frames on this time axis."""
        return Trajectory._wrap(self.grid, self.mp.t0, self.mp.T, frames)


# --- public solver operations --------------------------------------------------


def solve_linear_multipoint(sym: EllipticSymbol, grid: SpectralGrid, mp: MultipointSpec,
                            phi: Field, forcing: Trajectory | SeparableForcing | None = None,
                            nt: int = 200, eps_res: float = DEFAULT_EPS_RES) -> Trajectory:
    """Full trajectory u(tₘ) = U_L(tₘ-t0)u₀ + G(tₘ) on nt uniform intervals, whose first
    frame is the datum u₀: the one linear entry point.  With no multipoint terms it is
    free propagation, and with φ = 0 as well the Duhamel term G alone.  A forcing is a
    Trajectory on the time axis, or a SeparableForcing; either solve holds one trajectory
    stack: its F̂, then Ĝ, then the frames."""
    if forcing is not None and not isinstance(forcing, (Trajectory, SeparableForcing)):
        raise TypeError(f"forcing {type(forcing).__name__} is not a Trajectory or SeparableForcing")
    core = _MultipointCore(sym, grid, mp, phi, nt, eps_res)
    return core.wrap(core.frames(None if forcing is None else core.duhamel(forcing)))


def multipoint_residual(traj: Trajectory, mp: MultipointSpec, phi: Field) -> float:
    """Relative L² defect of u(t0) − φ − Σ αₖ u(λₖ)."""
    _check_on_axis(traj, phi.grid, mp, traj.nt, "trajectory")
    return _multipoint_defect(traj.values, mp, phi, traj.nt)


def _multipoint_defect(frames, mp: MultipointSpec, phi: Field, nt: int) -> float:
    """`multipoint_residual` of frames on nt steps by number: a stack, or a dict of the few."""
    defect = frames[0] - phi.values
    for (alpha, _), idx in zip(mp.points, mp.frame_indices(nt)):
        defect = defect - alpha * frames[idx]
    num = lebesgue_norm(Field._wrap(phi.grid, defect), 2.0)
    den = max(lebesgue_norm(phi, 2.0), float(np.finfo(np.float64).eps))
    return num / den


# --- estimate verification -----------------------------------------------------


@dataclass(frozen=True)
class DispersiveReport:
    p: float
    times: tuple
    norms: tuple
    quotients: tuple
    boundary_fractions: tuple
    slope: float
    wraparound: bool


def boundary_mass_fraction(f: Field) -> float:
    """Fraction of mass in the outer 10% shell (any axis within 10% of the wall).  When the
    total mass reads 0 or ∞, or max|u|² lies below the normal range, it is recomputed from
    |u|/max|u|, as `norms._power_root` does."""
    g = f.grid
    mesh = g.x_mesh()
    shell = np.zeros(g.shape, dtype=bool)
    for ax in mesh:
        shell = shell | (np.abs(ax) >= 0.9 * g.R)
    mag = np.abs(f.values)
    top = mag.max()
    with np.errstate(over="ignore"):  # a total that reads ∞ is recomputed below
        weights = mag**2
        total = float(np.sum(weights))
        if top > 0.0 and (total in (0.0, math.inf) or top**2 < _TINY):
            weights = (mag / top) ** 2
            total = float(np.sum(weights))
    return float(np.sum(weights[shell]) / total) if total > 0.0 else 0.0


def check_dispersive(times, p: float) -> list[float]:
    """p ∈ [2, ∞] and at least two times (a slope needs two points), positive, finite and
    strictly increasing; returns the times as floats."""
    if not (2.0 <= p):
        raise BadExponentError(f"dispersive check needs p in [2, inf], got {p}")
    ts = [float(t) for t in times]
    if len(ts) < 2:
        raise ValueError(f"times must list at least two times for a decay slope, got {len(ts)}")
    for t in ts:
        if not (t > 0.0):
            raise NonpositiveTimeError(f"times must be positive, got {t}")
        check_time(t)
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("times must be strictly increasing")
    return ts


def verify_dispersive(sym: EllipticSymbol, grid: SpectralGrid, phi: Field,
                      times, p: float = math.inf) -> DispersiveReport:
    """Decay check ‖U_L(t)φ‖_p vs t^{-n(1/2-1/p)}‖φ‖_{p'}.

    Reports the per-time quotients, the least-squares slope of
    log‖U_L(t)φ‖_p against log t, and a wrap-around flag when any frame puts
    more than 1% of its mass in the outer 10% shell of the box (the torus
    surrogate is no longer trustworthy past that point).  A quotient whose scale
    t^{-n(1/2-1/p)}‖φ‖_{p'} or value leaves the double range raises NonFiniteError naming t.
    """
    ts = check_dispersive(times, p)
    p_conj = 1.0 if p == math.inf else p / (p - 1.0)
    decay_rate = grid.n * (0.5 - (0.0 if p == math.inf else 1.0 / p))
    phi_dual = lebesgue_norm(phi, p_conj)
    if phi_dual == 0.0:
        raise NonFiniteError(f"datum norm ||phi||_p' is 0 (p' = {p_conj}), so the dispersive "
                             "quotients are undefined")
    phases = _Phases(symbol_lattice(sym, grid))
    frames = (frame for block in _propagate(grid, phases, _datum_spectrum(phi, grid), ts)
              for frame in block)
    norms, quotients, fractions = [], [], []
    for t, frame in zip(ts, frames):
        u_t = Field._wrap(grid, frame)
        nrm = lebesgue_norm(u_t, p)
        try:  # a float ** that leaves the double range raises OverflowError, or underflows to 0
            scale = t ** (-decay_rate) * phi_dual
        except OverflowError:
            scale = math.inf
        if not (0.0 < scale < math.inf and nrm / scale < math.inf):
            raise NonFiniteError(f"dispersive quotient at t={t} leaves the double range")
        norms.append(nrm)
        quotients.append(nrm / scale)
        fractions.append(boundary_mass_fraction(u_t))
    slope = float(np.polyfit(np.log(ts), np.log(norms), 1)[0])
    wrap = any(frac > 0.01 for frac in fractions)
    return DispersiveReport(p, tuple(ts), tuple(norms), tuple(quotients),
                            tuple(fractions), slope, wrap)


@dataclass(frozen=True)
class StrichartzReport:
    pairs: tuple
    ratios: tuple
    max_ratio: float
    data_norms: tuple

    @property
    def pair_labels(self) -> list[str]:
        return [p.label() for p in self.pairs]


def check_strichartz(grid: SpectralGrid, num_samples: int, seed: int, band: int) -> None:
    """The Strichartz check's preconditions: a sample, a seed >= 0, a band that fits the grid."""
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    check_band(grid, band)


def verify_strichartz(sym: EllipticSymbol, grid: SpectralGrid, t0: float = 0.0,
                      T: float = 1.0, nt: int = 64,
                      num_samples: int = DEFAULT_STRICHARTZ_SAMPLES,
                      seed: int = DEFAULT_STRICHARTZ_SEED,
                      band: int = DEFAULT_STRICHARTZ_BAND) -> StrichartzReport:
    """Empirical homogeneous Strichartz quotients S⁰(u)/‖φ‖₂ for random smooth data.

    Data are band-limited with a seeded generator, so the same seed produces
    the same functions on refined grids and the max ratio is a grid-convergent
    statistic.  Every sample is propagated on one phase table, and its frames are reduced
    to their norms a block at a time as they are made, so no sample holds a trajectory.
    """
    check_strichartz(grid, num_samples, seed, band)
    times, dt = MultipointSpec(t0, T).times(nt), time_step(t0, T, nt)
    pairs = tuple(canonical_pairs(grid.n))
    exponents = [(pair.q, pair.r) for pair in pairs]
    phases = _Phases(symbol_lattice(sym, grid))
    table = phases.table(times, t0)
    rng = np.random.default_rng(seed)
    ratios, data_norms = [], []
    for _ in range(num_samples):
        phi = random_band_limited(grid, band, rng)
        blocks = _propagate(grid, phases, _datum_spectrum(phi, grid), times, t0, table=table)
        l2 = lebesgue_norm(phi, 2.0)
        ratios.append(_space_time_norm(blocks, grid.h, dt, exponents) / l2)
        data_norms.append(l2)
    return StrichartzReport(pairs, tuple(ratios), float(max(ratios)), tuple(data_norms))
