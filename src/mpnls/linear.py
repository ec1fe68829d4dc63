"""Linear multipoint solver: u(t0) = φ + Σ αₖ u(λₖ) for i∂ₜu + Lu = F.

Everything is resolved per Fourier mode.  With the propagator phase
e^{-i t L(ξ)} and the Duhamel term Ĝ(t,ξ) = -i∫ₜ₀ᵗ e^{-i(t-τ)L(ξ)} F̂(τ,ξ) dτ,
the multipoint condition becomes an algebraic equation for the datum û₀:

    û₀·D(ξ) = φ̂(ξ) + Σₖ αₖ Ĝ(λₖ,ξ),   D(ξ) = 1 - Σₖ αₖ e^{-i(λₖ-t0)L(ξ)},

after which the whole trajectory is a single propagation pass.  Modes where
D(ξ) nearly vanishes make the problem ill-posed (resonance); the solver
refuses to divide when min|D| ≤ eps_res, which `check_eps_res` holds positive.
`_denominator` is the one build of D(ξ) and min|D|, and `min_abs_denominator`
its one public reader.  The Duhamel integral uses the incremental trapezoidal
recurrence, second order in Δt and linear in the number of frames.

Every solve, here and in the nonlinear module, runs on one private multipoint core.
`_MultipointCore`, the spectral context of a solve, builds L(ξ), its phases, the
Duhamel step e^{-iΔtL} and D(ξ) once, makes the only datum solve and runs every pass on
its time axis through `propagate` (into a stack) or, for η, `blocks`.  Its `duhamel` is the
one reader and checker of a forcing and makes the only forward transform of forcing frames
(block by block, `grid._frame_blocks`).  The free evolutions of `apply_propagator` and of
the two verifiers solve nothing and build no core.  `_datum_spectrum` is the only transform
of a datum and the one check that it lives on the grid of its pass.  `_propagate` is the
one propagation kernel: it makes the frames a `_frame_blocks` block at a time, one inverse
transform per frame, and hands each block to its reader, which writes it into a stack or,
needing only norms (a Strichartz sample, η), reduces it before the next block is made.  It
checks each block for NaN and Inf, and the passes leave an overflow to that check, without
numpy warnings.  Every phase e^{-iτL(ξ)} comes from `_Phases`, which exponentiates each
distinct value of L(ξ) once (a table row per time for the kernel) and gathers the result
onto the lattice.  `MultipointSpec.times` builds the time axis, and `_check_on_axis`
checks a trajectory against it.  A writeable forcing stack is the one buffer of its pass:
transformed to F̂, integrated to Ĝ and propagated in place.  A `SeparableForcing`'s profile
is transformed once, as a datum, and its F̂ = envelope ⊗ φ̂_f is the one buffer of its pass.
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
from .grid import (Field, SpectralGrid, Trajectory, _forward_frames, _frame_blocks, check_band,
                   check_time, forward_transform, inverse_transform, random_band_limited)
from .norms import _TINY, _strichartz_norm, apply_riesz, canonical_pairs, lebesgue_norm
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
        lams = [lam for _, lam in pts]
        if len(set(lams)) != len(lams):
            raise ValueError("lambda_k values must be distinct")
        object.__setattr__(self, "points", pts)

    def times(self, nt: int) -> np.ndarray:
        """The time axis t0 + k·(T−t0)/nt, k = 0..nt, of nt ≥ 1 uniform intervals."""
        if nt < 1:
            raise ValueError(f"number of time intervals nt must be >= 1, got {nt}")
        return np.linspace(self.t0, self.T, nt + 1)

    def frame_indices(self, nt: int) -> list[int]:
        """Frame index k of each λ on the time grid t0 + k·(T−t0)/nt; a λ farther
        than LAMBDA_GRID_TOL from every grid time raises LambdaOffGridError."""
        times = self.times(nt)
        dt = (self.T - self.t0) / nt
        idxs = []
        for _, lam in self.points:
            idx = int(round((lam - self.t0) / dt))
            if idx < 0 or idx > nt or abs(times[idx] - lam) > LAMBDA_GRID_TOL:
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
        env.flags.writeable = False
        object.__setattr__(self, "envelope", env)


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
        """e^{-i(tₘ-t0)L} for every tₘ and distinct L, row m for tₘ: for many passes on
        one axis, about half a trajectory array.  It is built in its own buffer, with the
        bits of exp(-1j·(tₘ-t0)L): exponent 0 + i·(-(tₘ-t0)L), row by row (one strided
        2-D product would buffer)."""
        tab = np.zeros((len(times), len(self.values)), dtype=np.complex128)
        for row, tau in zip(tab.imag, times - t0):
            np.multiply(-tau, self.values, out=row)
        return np.exp(tab, out=tab)

    def __call__(self, tau: float) -> np.ndarray:
        """e^{-iτL(ξ)} on the lattice, for a single phase."""
        return np.exp(-1j * tau * self.values)[self.where]


def _denominator(phases: _Phases, mp: MultipointSpec) -> tuple[np.ndarray, float]:
    """D(ξ) = 1 − Σ αₖ e^{-i(λₖ-t0)L(ξ)} from the phases of one L(ξ), read-only, and its
    minimum modulus: the one build of both."""
    d = np.ones(phases.where.shape, dtype=np.complex128)
    for alpha, lam in mp.points:  # α times a lattice phase, as numpy rounds it (see _Phases)
        d = d - alpha * phases(lam - mp.t0)
    d.flags.writeable = False
    return d, float(np.min(np.abs(d)))


def _datum_spectrum(phi: Field, grid: SpectralGrid, s: float = 0.0,
                    what: str = "datum") -> np.ndarray:
    """The spectrum of the datum |∇|^s φ (s = 0 by default), which lives on `grid`, the grid of
    its pass, or raises GridMismatchError naming it `what`.  An overflow of |∇|^s raises
    NonFiniteError in `apply_riesz`; one of this transform is left to `_propagate`'s check."""
    if phi.grid != grid:
        raise GridMismatchError(f"{what} does not live on the given grid")
    with np.errstate(over="ignore", invalid="ignore"):
        return forward_transform(apply_riesz(phi, s)).values


def _duhamel_spectral(step: np.ndarray, dt: float, fhat: np.ndarray) -> np.ndarray:
    """Overwrites F̂ with Ĝ in place and returns it, keeping one rolling F̂ frame: for the
    step S = e^{-iΔtL}, Ĝ(tₘ) = S·Ĝ(tₘ₋₁) − (iΔt/2)(S·F̂ₘ₋₁ + F̂ₘ), Ĝ(t₀) = 0."""
    half = -0.5j * dt
    prev = fhat[0].copy()
    term = np.empty_like(prev)
    fhat[0] = 0.0
    for m in range(1, fhat.shape[0]):
        np.multiply(step, prev, out=term)
        np.add(term, fhat[m], out=term)
        np.multiply(half, term, out=term)
        prev[...] = fhat[m]
        np.multiply(step, fhat[m - 1], out=fhat[m])
        np.add(fhat[m], term, out=fhat[m])
    return fhat


def _propagate(grid: SpectralGrid, phases: _Phases, u_hat: np.ndarray, times,
               t0: float = 0.0, ghat: np.ndarray | None = None,
               table: np.ndarray | None = None, out: np.ndarray | None = None):
    """The propagation kernel: yields the frames F⁻¹[e^{-i(tₘ-t0)L(ξ)}û + Ĝ(tₘ)] one
    `_frame_blocks` block at a time, each to be read before the next is made.

    A block's phase rows, of `table` (`phases.table` on `times`) or else of `phases.table`
    on its own times, are gathered onto the lattice in the pass's one block buffer, times û,
    plus Ĝ; each frame then gets one `inverse_transform`, into `out[rows]` when a stack
    `out` is given (Ĝ's own buffer may be it) and else back into the block buffer.  A block
    with a frame that is not finite raises NonFiniteError naming the first such frame.
    """
    times = np.asarray(times, dtype=np.float64)
    blocks = list(_frame_blocks(len(times), u_hat.nbytes))
    buffer = np.empty((blocks[0].stop - blocks[0].start,) + grid.shape, dtype=np.complex128)
    for rows in blocks:
        with np.errstate(over="ignore", invalid="ignore"):  # the frame check judges an overflow
            tab = phases.table(times[rows], t0) if table is None else table[rows]
            block = buffer[:len(tab)]
            np.take(tab, phases.where, axis=1, out=block, mode="clip")  # "raise" buffers `out`
            np.multiply(block, u_hat, out=block)
            if ghat is not None:
                np.add(block, ghat[rows], out=block)
            frames = block if out is None else out[rows]
            for i, frame in enumerate(block):
                frames[i] = inverse_transform(Field._wrap(grid, frame)).values
        finite = np.isfinite(frames.reshape(len(frames), -1)).all(axis=1)
        if not finite.all():
            t = times[rows][np.argmin(finite)]
            raise NonFiniteError(f"propagated frame at t={t} is not finite")
        yield frames


def _check_on_axis(traj: Trajectory, grid: SpectralGrid, mp: MultipointSpec, nt: int,
                   what: str) -> None:
    """`traj` is on `grid`, spans mp's [t0, T] to within LAMBDA_GRID_TOL and has nt steps."""
    if traj.grid != grid:
        raise GridMismatchError(f"{what} lives on {traj.grid!r}, not on {grid!r}")
    if abs(traj.t0 - mp.t0) > LAMBDA_GRID_TOL or abs(traj.T - mp.T) > LAMBDA_GRID_TOL:
        raise GridMismatchError(f"{what} spans [{traj.t0},{traj.T}], not [{mp.t0},{mp.T}]")
    if traj.nt != nt:
        raise GridMismatchError(f"{what} has nt={traj.nt}, not nt={nt}")


class _MultipointCore:
    """The spectral context of a solve: checks once, then resolves û₀ and propagates it.

    Checks eps_res and the time axis, and builds once the phases of L(ξ), the Duhamel step
    e^{-iΔtL}, D(ξ), the frame indices of the λₖ and φ̂ (`_datum_spectrum` checks its grid); it
    refuses a D(ξ) with min|D| ≤ eps_res.  `duhamel` reads and checks a forcing.  phase_table=True
    precomputes e^{-i(tₘ-t0)L(ξ)} for every frame, for a caller that propagates many times.
    """

    def __init__(self, sym: EllipticSymbol, grid: SpectralGrid, mp: MultipointSpec, phi: Field,
                 nt: int, eps_res: float, phase_table: bool = False):
        check_eps_res(eps_res)
        self.grid = grid
        self.mp = mp
        self.nt = nt
        self.times = mp.times(nt)
        self.lam_idx = mp.frame_indices(nt)
        self.larr = symbol_lattice(sym, grid)
        self.phases = _Phases(self.larr)
        self.denom, min_abs = _denominator(self.phases, mp)
        if min_abs <= eps_res:
            raise ResonanceError(
                f"multipoint denominator min |D(xi)| = {min_abs:.6e} <= eps_res = {eps_res:.1e}",
                min_abs=min_abs, eps_res=eps_res,
            )
        self.dt = (mp.T - mp.t0) / nt
        self.step = self.phases(self.dt)
        self.phi_hat = _datum_spectrum(phi, grid)
        self.table = self.phases.table(self.times, mp.t0) if phase_table else None

    def duhamel(self, forcing: Trajectory | SeparableForcing | np.ndarray) -> np.ndarray:
        """Ĝ on the time axis; the one reader and checker of a forcing.  A SeparableForcing has
        one envelope value per frame, and F̂ = envelope ⊗ φ̂_f in a new buffer from one
        transform of its profile, a datum of the pass.  A Trajectory is checked against the axis.
        Physical frames are transformed a block at a time: a writeable stack (Φ's) is the
        caller's scratch, overwritten with F̂, then Ĝ; a read-only one goes into a new buffer."""
        with np.errstate(over="ignore", invalid="ignore"):  # _propagate judges an overflow
            if isinstance(forcing, SeparableForcing):
                if len(forcing.envelope) != self.nt + 1:
                    raise GridMismatchError(f"forcing envelope has {len(forcing.envelope)} values, "
                                            f"not one per frame, nt + 1 = {self.nt + 1}")
                spec = _datum_spectrum(forcing.profile, self.grid, what="forcing profile")
                fhat = np.empty((self.nt + 1,) + spec.shape, dtype=np.complex128)
                for m, value in enumerate(forcing.envelope):  # a broadcast product buffers
                    np.multiply(value, spec, out=fhat[m])
            else:
                if isinstance(forcing, Trajectory):
                    _check_on_axis(forcing, self.grid, self.mp, self.nt, "forcing")
                    forcing = forcing.values
                fhat = forcing if forcing.flags.writeable else np.empty_like(forcing)
                for block in _frame_blocks(len(forcing), forcing[0].nbytes):
                    _forward_frames(self.grid, forcing[block], out=fhat[block])
            return _duhamel_spectral(self.step, self.dt, fhat)

    def propagate(self, u_hat: np.ndarray, ghat: np.ndarray | None = None) -> np.ndarray:
        """Frames F⁻¹[e^{-i(tₘ-t0)L}û + Ĝ(tₘ)] of a spectral datum û on the time axis, by the
        phase table if there is one, in a stack: over Ĝ's buffer if there is one."""
        frames = np.empty((self.nt + 1,) + self.grid.shape, dtype=np.complex128) \
            if ghat is None else ghat
        for _ in _propagate(self.grid, self.phases, u_hat, self.times, self.mp.t0, ghat,
                            self.table, frames):
            pass  # each block is written into the stack
        return frames

    def blocks(self, u_hat: np.ndarray):
        """The frames of `propagate` with no Ĝ, a block at a time in one block buffer, for a
        reader that keeps only their norms."""
        return _propagate(self.grid, self.phases, u_hat, self.times, self.mp.t0, table=self.table)

    def frames(self, ghat: np.ndarray | None = None) -> np.ndarray:
        """u(tₘ) = U_L(tₘ-t0)u₀ + G(tₘ): the propagation of the datum solve
        û₀ = [φ̂ + Σₖ αₖ Ĝ(λₖ)] / D(ξ)."""
        rhs = self.phi_hat
        with np.errstate(over="ignore", invalid="ignore"):  # _propagate judges an overflow
            if ghat is not None:
                for (alpha, _), idx in zip(self.mp.points, self.lam_idx):
                    rhs = rhs + alpha * ghat[idx]
            u0_hat = rhs / self.denom
        return self.propagate(u0_hat, ghat)

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
    Trajectory on the time axis, or a SeparableForcing, whose solve holds one trajectory
    stack: its F̂, then Ĝ, then the frames."""
    if forcing is not None and not isinstance(forcing, (Trajectory, SeparableForcing)):
        raise TypeError(f"forcing {type(forcing).__name__} is not a Trajectory or SeparableForcing")
    core = _MultipointCore(sym, grid, mp, phi, nt, eps_res)
    return core.wrap(core.frames(None if forcing is None else core.duhamel(forcing)))


def multipoint_residual(traj: Trajectory, mp: MultipointSpec, phi: Field) -> float:
    """Relative L² defect of u(t0) − φ − Σ αₖ u(λₖ)."""
    _check_on_axis(traj, phi.grid, mp, traj.nt, "trajectory")
    defect = traj.values[0] - phi.values
    for (alpha, _), idx in zip(mp.points, mp.frame_indices(traj.nt)):
        defect = defect - alpha * traj.values[idx]
    num = lebesgue_norm(Field._wrap(traj.grid, defect), 2.0)
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
    surrogate is no longer trustworthy past that point).
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
        norms.append(nrm)
        quotients.append(nrm / (t ** (-decay_rate) * phi_dual))
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
    times = MultipointSpec(t0, T).times(nt)
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
        ratios.append(_strichartz_norm(blocks, grid.h, (T - t0) / nt, exponents) / l2)
        data_norms.append(l2)
    return StrichartzReport(pairs, tuple(ratios), float(max(ratios)), tuple(data_norms))
