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

Every solver and verifier, here and in the nonlinear module, runs on one
private multipoint core.  `_MultipointCore`, the spectral context of a solve,
builds L(ξ), its phases, the Duhamel step e^{-iΔtL} and D(ξ) once, makes the
only datum solve and the only forward transform of forcing frames (block by
block, `grid._frame_blocks`), and runs every pass on its time axis, η included,
through `propagate`.  `_datum_spectrum` is the only transform of a datum, and
`_propagate` the only propagation pass; it checks each frame it writes for NaN
and Inf, and the passes leave an overflow to that check, without numpy warnings.
Every phase e^{-iτL(ξ)} comes from `_Phases`, which exponentiates each distinct
value of L(ξ) once and gathers the result onto the lattice.  `MultipointSpec.times`
builds the time axis, and `_check_on_axis` checks a trajectory against it.  A
writeable forcing stack is the one buffer of its pass: transformed to F̂,
integrated to Ĝ and propagated in place.
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
    NonpositiveTimeError,
    ResonanceError,
)
from .grid import (Field, SpectralGrid, Trajectory, _forward_frames, _frame_blocks, check_band,
                   check_time, forward_transform, inverse_transform, random_band_limited)
from .norms import apply_riesz, canonical_pairs, lebesgue_norm, strichartz_norm
from .symbol import EllipticSymbol

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


def symbol_lattice(sym: EllipticSymbol, grid: SpectralGrid) -> np.ndarray:
    """L(ξ) evaluated on the full frequency lattice."""
    if sym.n != grid.n:
        raise GridMismatchError(f"symbol dimension {sym.n} != grid dimension {grid.n}")
    mesh = grid.freq_mesh()
    out = np.zeros(grid.shape)
    for i in range(sym.n):
        for j in range(sym.n):
            if sym.a[i, j] != 0.0:
                out = out + sym.a[i, j] * mesh[i] * mesh[j]
    return out


def apply_propagator(sym: EllipticSymbol, grid: SpectralGrid, t: float, f: Field) -> Field:
    """Free evolution U_L(t)f: multiply each mode by e^{-i t L(ξ)}."""
    check_time(t)
    if f.grid != grid:
        raise GridMismatchError("field does not live on the given grid")
    phases = _Phases(symbol_lattice(sym, grid))
    return Field._wrap(grid, _propagate(grid, phases, _datum_spectrum(f), [t])[0])


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
        one axis, about half a trajectory array."""
        return np.exp(-1j * np.multiply.outer(times - t0, self.values))

    def gather(self, compact: np.ndarray) -> np.ndarray:
        """A new lattice array from one value per distinct L, such as a table row."""
        return compact[self.where]

    def __call__(self, tau: float) -> np.ndarray:
        """e^{-iτL(ξ)} on the lattice."""
        return self.gather(np.exp(-1j * tau * self.values))


def _denominator(phases: _Phases, mp: MultipointSpec) -> tuple[np.ndarray, float]:
    """D(ξ) = 1 − Σ αₖ e^{-i(λₖ-t0)L(ξ)} from the phases of one L(ξ), read-only, and its
    minimum modulus: the one build of both."""
    d = np.ones(phases.where.shape, dtype=np.complex128)
    for alpha, lam in mp.points:  # α times a lattice phase, as numpy rounds it (see _Phases)
        d = d - alpha * phases(lam - mp.t0)
    d.flags.writeable = False
    return d, float(np.min(np.abs(d)))


def _datum_spectrum(phi: Field, s: float = 0.0) -> np.ndarray:
    """The spectrum of the datum |∇|^s φ, s = 0 by default.  An overflow of |∇|^s raises
    NonFiniteError in `apply_riesz`; one of this transform is left to the frame check of
    `_propagate`, without numpy warnings."""
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
               table: np.ndarray | None = None) -> np.ndarray:
    """The propagation kernel: frames F⁻¹[e^{-i(tₘ-t0)L(ξ)}û + Ĝ(tₘ)] for each tₘ.

    The phase is computed frame by frame unless a `phases.table`, indexed like `times`, is
    given.  With a Ĝ, frame m is written over Ĝ(tₘ) once it is read.  A frame written
    non-finite raises NonFiniteError.
    """
    frames = np.empty((len(times),) + grid.shape, dtype=np.complex128) if ghat is None else ghat
    with np.errstate(over="ignore", invalid="ignore"):  # the frame check judges an overflow
        for m, t in enumerate(times):
            uhat = phases(t - t0) if table is None else phases.gather(table[m])
            uhat *= u_hat
            if ghat is not None:
                uhat += ghat[m]
            frames[m] = inverse_transform(Field._wrap(grid, uhat)).values
            if not np.isfinite(frames[m]).all():
                raise NonFiniteError(f"propagated frame at t={t} is not finite")
    return frames


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

    Checks eps_res, the datum and forcing grids and the time axis, and builds once the phases
    of L(ξ), the Duhamel step e^{-iΔtL}, D(ξ), the frame indices of the λₖ and φ̂; it refuses
    a D(ξ) with min|D| ≤ eps_res.  phase_table=True precomputes e^{-i(tₘ-t0)L(ξ)} for every
    frame, for a caller that propagates many times.
    """

    def __init__(self, sym: EllipticSymbol, grid: SpectralGrid, mp: MultipointSpec, phi: Field,
                 nt: int, eps_res: float, forcing: Trajectory | None = None,
                 phase_table: bool = False):
        check_eps_res(eps_res)
        if phi.grid != grid:
            raise GridMismatchError("datum does not live on the solver grid")
        if forcing is not None:
            _check_on_axis(forcing, grid, mp, nt, "forcing")
        self.grid = grid
        self.mp = mp
        self.nt = nt
        self.times = mp.times(nt)
        self.lam_idx = mp.frame_indices(nt)
        self.phases = _Phases(symbol_lattice(sym, grid))
        self.denom, min_abs = _denominator(self.phases, mp)
        if min_abs <= eps_res:
            raise ResonanceError(
                f"multipoint denominator min |D(xi)| = {min_abs:.6e} <= eps_res = {eps_res:.1e}",
                min_abs=min_abs, eps_res=eps_res,
            )
        self.dt = (mp.T - mp.t0) / nt
        self.step = self.phases(self.dt)
        self.phi_hat = _datum_spectrum(phi)
        self.table = self.phases.table(self.times, mp.t0) if phase_table else None

    def duhamel(self, forcing: np.ndarray) -> np.ndarray:
        """Ĝ on the time axis for a stack of physical forcing frames, transformed a block
        of frames at a time.  A writeable stack is the caller's scratch and is overwritten
        with F̂, then Ĝ; a read-only one is transformed into a new buffer."""
        fhat = forcing if forcing.flags.writeable else np.empty_like(forcing)
        with np.errstate(over="ignore", invalid="ignore"):  # _propagate judges an overflow
            for block in _frame_blocks(forcing):
                _forward_frames(self.grid, forcing[block], out=fhat[block])
            return _duhamel_spectral(self.step, self.dt, fhat)

    def propagate(self, u_hat: np.ndarray, ghat: np.ndarray | None = None) -> np.ndarray:
        """Frames F⁻¹[e^{-i(tₘ-t0)L}û + Ĝ(tₘ)] of a spectral datum û on the time axis, by the
        phase table if there is one, and over Ĝ's buffer if there is one."""
        return _propagate(self.grid, self.phases, u_hat, self.times, self.mp.t0, ghat, self.table)

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
                            phi: Field, forcing: Trajectory | None = None,
                            nt: int = 200, eps_res: float = DEFAULT_EPS_RES) -> Trajectory:
    """Full trajectory u(tₘ) = U_L(tₘ-t0)u₀ + G(tₘ) on nt uniform intervals, whose first
    frame is the datum u₀: the one linear entry point.  With no multipoint terms it is
    free propagation, and with φ = 0 as well the Duhamel term G alone."""
    core = _MultipointCore(sym, grid, mp, phi, nt, eps_res, forcing)
    return core.wrap(core.frames(None if forcing is None else core.duhamel(forcing.values)))


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
    """Fraction of mass in the outer 10% shell (any axis within 10% of the wall)."""
    g = f.grid
    mesh = g.x_mesh()
    shell = np.zeros(g.shape, dtype=bool)
    for ax in mesh:
        shell = shell | (np.abs(ax) >= 0.9 * g.R)
    weights = np.abs(f.values) ** 2
    total = float(np.sum(weights))
    if total == 0.0:
        return 0.0
    return float(np.sum(weights[shell]) / total)


def check_dispersive(times, p: float) -> list[float]:
    """p ∈ [2, ∞] and times nonempty, positive, finite and strictly increasing; returns
    the times as floats."""
    if not (2.0 <= p):
        raise BadExponentError(f"dispersive check needs p in [2, inf], got {p}")
    ts = [float(t) for t in times]
    if not ts:
        raise ValueError("times must be a nonempty list")
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
    phi_hat = _datum_spectrum(phi)
    norms, quotients, fractions = [], [], []
    for t in ts:
        u_t = Field._wrap(grid, _propagate(grid, phases, phi_hat, [t])[0])
        nrm = lebesgue_norm(u_t, p)
        norms.append(nrm)
        quotients.append(nrm / (t ** (-decay_rate) * phi_dual))
        fractions.append(boundary_mass_fraction(u_t))
    slope = float(np.polyfit(np.log(ts), np.log(norms), 1)[0]) if len(ts) >= 2 else math.nan
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
    statistic.  Every sample is propagated on one phase table.
    """
    check_strichartz(grid, num_samples, seed, band)
    times = MultipointSpec(t0, T).times(nt)
    pairs = tuple(canonical_pairs(grid.n))
    phases = _Phases(symbol_lattice(sym, grid))
    table = phases.table(times, t0)
    rng = np.random.default_rng(seed)
    ratios, data_norms = [], []
    for _ in range(num_samples):
        phi = random_band_limited(grid, band, rng)
        frames = _propagate(grid, phases, _datum_spectrum(phi), times, t0, table=table)
        l2 = lebesgue_norm(phi, 2.0)
        ratios.append(strichartz_norm(Trajectory._wrap(grid, t0, T, frames), pairs) / l2)
        data_norms.append(l2)
        del frames  # the table stands in for these frames, not beside them
    return StrichartzReport(pairs, tuple(ratios), float(max(ratios)), tuple(data_norms))
