"""Picard fixed-point solver for the multipoint NLS i∂ₜu + Lu + λ|u|ᵖu = 0.

The solution map Φ re-solves the forced linear multipoint problem with forcing -λ|u|ᵖu
evaluated on the whole trajectory, so each iterate satisfies the multipoint condition
exactly; iteration runs over space-time because the datum u₀ depends on future values
u(λₖ) and time-marching cannot enforce that.  Distances are measured in the contraction
metric L_t^{p+2} L_x^r with r = 2n(p+2)/(2(n-2)+np), clamped to 2 (and flagged) when the
formula leaves [2, ∞); `_metric_norm` is its one definition, the one-pair case of
`norms._space_time_norm`.  Smallness of the free evolution in that norm (the indicator η)
is the regime where contraction is expected; the solver reports η and the measured
contraction ratios rather than asserting a threshold.

Every propagation goes through `_MultipointCore`, its one spectral context: each Φ
application is one datum solve and one pass of its `frames`, and η (`_eta`) one more pass,
of the core's φ̂ times |ξ|^s, whose frames are reduced to the metric a block at a time as they
are made (`blocks`), so η never holds a trajectory.  The solver's η reads the solve's phase
table, and a standalone `smallness_indicator` runs `_eta` on a core of its own with none.
The solution itself is reduced once, by `frame_observables`, which gives the
per-frame columns and the Strichartz value of |∇|^s u.  Φ (`_phi`) writes -F(u) a block at a
time, as the Duhamel recurrence reaches the block, where it is transformed and integrated.
A plain Picard step, whose iterate nothing reads past it, streams Φ over that iterate
(`_differences`): each block of Φ(x) is measured against x's block, then written over it,
after the fill has read it.  So the step holds the iterate, the phase table and block
buffers: the datum solve's pass of Φ's Duhamel term, which stops at the last λₖ, keeps none
of it, and the propagation's pass makes it anew.  The final residual and
`integral_residual` stream the same way with no write.  A step past the gate and `picard_step`
stack Φ (`_solution_map`) in one trajectory-sized buffer: F̂, then Ĝ, then the frames.
Φ is finite or raises NonFiniteError: `_power_block` checks F(u) and `_propagate` each frame.
An iterate from outside is checked by `_check_on_axis`, a datum by `_datum_spectrum`.

The iteration is plain Picard up to the first contraction ratio above MIX_GATE, then
depth-1 Anderson mixing (Walker & Ni 2011), which keeps two more trajectories; each deeper
level would keep two more again.  The step that opens the gate keeps Φ(x_k), written over
x_k, as its next iterate, so the history starts at the step after it: a mix with no
history is the plain step, so that step is plain Picard too.  A distance beyond
DIVERGENCE_FACTOR·d₀, or a non-finite Φ past the first iterate, is divergence
(NoConvergenceError), not a non-finite solution.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadExponentError, NoConvergenceError, NonFiniteError
from .grid import Field, SpectralGrid, Trajectory, _frame_blocks, _stack_blocks
from .linear import DEFAULT_EPS_RES, MultipointSpec, _check_on_axis, _MultipointCore
from .norms import (FrameObservables, _riesz, _space_time_norm, canonical_pairs, check_power,
                    check_sobolev_order, frame_observables)
from .symbol import EllipticSymbol

DEFAULT_TOL_FP = 1e-10
DEFAULT_MAX_ITER = 50
MIX_GATE = 0.5          # depth-1 Anderson mixing switches on at the first ratio above this
DIVERGENCE_FACTOR = 1e3  # d_k > DIVERGENCE_FACTOR·d_0 is divergence, not slow convergence


@dataclass(frozen=True)
class PowerNonlinearity:
    """F(u) = λ|u|ᵖu; λ < 0 focusing, λ > 0 defocusing under i∂ₜu + Lu + F(u) = 0."""

    lam: float
    p: float

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise ValueError(f"lambda must be finite, got {self.lam}")
        check_power(self.p)


@dataclass(frozen=True)
class PicardDiagnostics:
    iterations: int
    d_history: tuple
    contraction_ratios: tuple
    final_residual: float
    eta: float
    mass_drift: float
    energy_drift: float
    r_metric: float
    metric_clamped: bool
    strichartz_value: float
    min_abs_denominator: float  # min|D(ξ)|, as the solve compared it with eps_res
    observables: FrameObservables  # per-frame mass, energy, l2, linf, sobolev_s


def metric_exponent(n: int, p: float) -> tuple[float, bool]:
    """Spatial exponent r(p,n) = 2n(p+2)/(2(n-2)+np) of the contraction metric.

    Returns (r, clamped): for n(p+2) ≤ 4 the formula leaves [2, ∞) and r is
    clamped to 2.
    """
    denom = n * (p + 2.0) - 4.0
    if denom <= 0.0:
        return 2.0, True
    return 2.0 * n * (p + 2.0) / denom, False


def eval_nonlinearity(f: Field, nl: PowerNonlinearity) -> Field:
    """Pointwise λ|u|ᵖu."""
    return Field._wrap(f.grid, _power_block(f.values, nl))


def _power_block(values: np.ndarray, nl: PowerNonlinearity, out=None) -> np.ndarray:
    """λ|u|ᵖu, built in `out` (a new array by default): λ|u|ᵖ + 0i first, then times u; a
    value that is not finite raises NonFiniteError."""
    out = np.empty_like(values) if out is None else out
    with np.errstate(over="ignore", invalid="ignore"):
        mag = np.abs(values, out=out.real)
        mag **= nl.p
        mag *= nl.lam
        out.imag = 0.0
        np.multiply(out, values, out=out)
        if not np.isfinite(out).all():
            raise NonFiniteError("nonlinearity overflowed to non-finite values")
    return out


def check_regularity(s: float) -> None:
    """The nonlinear solve's bound on the regularity of η: s ∈ [0, 1]."""
    check_sobolev_order(s)
    if s > 1.0:
        raise BadExponentError(f"regularity s must be in [0, 1] for the nonlinear solve, got {s}")


def check_picard_tolerances(tol_fp: float, max_iter: int) -> None:
    """The Picard stopping rule needs tol_fp > 0 and max_iter >= 1."""
    if not (tol_fp > 0.0):
        raise ValueError(f"tol_fp must be positive, got {tol_fp}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def _metric_norm(grid: SpectralGrid, dt: float, blocks, nl: PowerNonlinearity) -> float:
    """The contraction metric L_t^{p+2} L_x^{r(p,n)}, `_space_time_norm` of its one pair, of frames
    on `grid`, `dt` apart: `_stack_blocks` of a stack, or a propagation's blocks as they are made."""
    return _space_time_norm(blocks, grid.h, dt, [(nl.p + 2.0, metric_exponent(grid.n, nl.p)[0])])


def _eta(core: _MultipointCore, s: float, nl: PowerNonlinearity) -> float:
    """η, the metric of the core's free evolution of |∇|^s φ: one pass of its `blocks` over
    |ξ|^s·φ̂, with the |ξ|^s of `norms._riesz`, which is 1.0 at s = 0."""
    with np.errstate(over="ignore", invalid="ignore"):  # _propagate judges an overflow
        spectrum = _riesz(core.grid, s) * core.phi_hat
    return _metric_norm(core.grid, core.dt, core.blocks(spectrum), nl)


def smallness_indicator(sym: EllipticSymbol, grid: SpectralGrid, phi: Field, s: float,
                        nl: PowerNonlinearity, T: float, t0: float = 0.0, nt: int = 200) -> float:
    """η = ‖|∇|^s U_L(t)φ‖ in the contraction metric over [t0, T]."""
    check_regularity(s)
    return _eta(_MultipointCore(sym, grid, MultipointSpec(t0, T), phi, nt, DEFAULT_EPS_RES), s, nl)


# --- the solution map ----------------------------------------------------------


def _phi(core: _MultipointCore, current: np.ndarray, nl: PowerNonlinearity):
    """The Duhamel maker of Φ(current): the forcing -F(current), which is λ → -λ in F, written
    a block at a time where the recurrence reads it.  An F(current) or a frame that is not
    finite raises NonFiniteError."""
    minus_f = PowerNonlinearity(-nl.lam, nl.p)  # i∂ₜu + Lu = -F(u)
    return core.duhamel(lambda rows, out: _power_block(current[rows], minus_f, out))


def _solution_map(core: _MultipointCore, current: np.ndarray, nl: PowerNonlinearity) -> np.ndarray:
    """Φ(current) in a new writeable stack, which never writes into `current`."""
    return core.frames(_phi(core, current, nl))


def _differences(core: _MultipointCore, x: np.ndarray, nl: PowerNonlinearity, over: bool):
    """The blocks of Φ(x) − x, a block at a time as Φ's propagation makes them, with no stack:
    formed in the propagation's buffer, or, `over`, in x's rows, over which the block of Φ(x) is
    written once it has been read.  The fill reads a block of x before the propagation makes it,
    so x then ends as Φ(x)."""
    for rows, block in zip(_frame_blocks(len(x), x[0].nbytes), core.solve(_phi(core, x, nl))):
        yield np.subtract(block, x[rows], out=x[rows] if over else block)
        if over:
            x[rows] = block


def _iterate_core(sym: EllipticSymbol, grid: SpectralGrid, mp: MultipointSpec, phi: Field,
                  traj: Trajectory, eps_res: float) -> _MultipointCore:
    _check_on_axis(traj, grid, mp, traj.nt, "iterate")
    return _MultipointCore(sym, grid, mp, phi, traj.nt, eps_res)


def _residual(core: _MultipointCore, values: np.ndarray, nl: PowerNonlinearity) -> float:
    """d(u, Φ(u)), streamed: no Φ stack, and `values` is not written."""
    return _metric_norm(core.grid, core.dt, _differences(core, values, nl, over=False), nl)


def picard_step(sym: EllipticSymbol, grid: SpectralGrid, mp: MultipointSpec, phi: Field,
                nl: PowerNonlinearity, current: Trajectory,
                eps_res: float = DEFAULT_EPS_RES) -> Trajectory:
    """One application of the solution map Φ(current)."""
    core = _iterate_core(sym, grid, mp, phi, current, eps_res)
    return core.wrap(_solution_map(core, current.values, nl))


def integral_residual(sym: EllipticSymbol, grid: SpectralGrid, mp: MultipointSpec,
                      phi: Field, nl: PowerNonlinearity, traj: Trajectory,
                      eps_res: float = DEFAULT_EPS_RES) -> float:
    """Defect d(u, Φ(u)) of the integral equation in the contraction metric."""
    core = _iterate_core(sym, grid, mp, phi, traj, eps_res)
    return _residual(core, traj.values, nl)


def _relative_drift(values: tuple[float, ...]) -> float:
    ref = values[0]
    floor = float(np.finfo(np.float64).eps)
    return max(abs(v - ref) for v in values) / max(abs(ref), floor)


def _inner(a: np.ndarray, b: np.ndarray) -> complex:
    """The flat ℓ² product ⟨a, b⟩ = Σ conj(a)·b of two stacks, summed by numpy a block of
    frames (`_frame_blocks`) at a time.  Not BLAS's vdot: its summation order, and so its
    last bits, follow the BLAS thread count."""
    total = 0j
    for rows in _frame_blocks(len(a), a[0].nbytes):
        prod = np.conj(a[rows])
        prod *= b[rows]
        total += complex(prod.sum())
    return total


def _mix(f: np.ndarray, g: np.ndarray, history) -> np.ndarray:
    """Depth-1 Anderson mixing: x = f − γ(f − f_prev), γ = ⟨Δg, g⟩/⟨Δg, Δg⟩ in the flat
    ℓ² product, g = f − x the last residual.  Δf and Δg are formed in the history
    buffers and x is written over Δf; with no history, or Δg = 0, x is the plain step f."""
    if history is None:
        return f.copy()
    df, dg = history
    np.subtract(g, dg, out=dg)
    np.subtract(f, df, out=df)
    dg_dg = _inner(dg, dg).real
    if not 0.0 < dg_dg < np.inf:
        np.copyto(df, f)
        return df
    df *= _inner(dg, g) / dg_dg
    return np.subtract(f, df, out=df)


def _fixed_point(core: _MultipointCore, nl: PowerNonlinearity, tol_fp: float,
                 max_iter: int) -> tuple[np.ndarray | None, list, str | None]:
    """Iterate Φ from the linear multipoint solution.

    Returns the converged Φ output (None on failure), the distances
    d_k = d(x_k, Φ(x_k)) and, on failure, why.  The loop is plain Picard up to the
    first contraction ratio above MIX_GATE: a plain step writes Φ(x) over x as it
    measures d.  From the next step on Φ(x), whose x outlives the step, is made in a
    stack, and f = Φ(x) and g = f − x are mixed with the previous step's pair into the
    next iterate; the first of these steps has no pair to mix with, so its iterate is f.
    Every iterate is an affine combination of Φ outputs, so it meets the multipoint
    condition.
    """
    x = core.frames()  # the linear multipoint solution
    d_history: list[float] = []
    gate = False  # open from the step after the first ratio above MIX_GATE
    history = None  # f = Φ(x) and g = f − x of the last step, kept once the gate is open
    for k in range(max_iter):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                if not gate:  # x becomes Φ(x) as d is measured
                    blocks = _differences(core, x, nl, over=True)
                else:
                    f = _solution_map(core, x, nl)
                    g = np.subtract(f, x, out=x)  # x is not read again
                    blocks = _stack_blocks(g)
                d = _metric_norm(core.grid, core.dt, blocks, nl)
            except NonFiniteError:
                if k == 0:  # F of the linear solution overflows: the data blow up, not the iteration
                    raise
                return None, d_history, f"Picard iteration diverged: Φ of iterate {k} is not finite"
            if k == 0 and not np.isfinite(d):
                raise NonFiniteError("the first Picard distance is not finite")
            d_history.append(d)
            if d < tol_fp:
                return f if gate else x, d_history, None
            if k > 0 and not d <= DIVERGENCE_FACTOR * d_history[0]:
                return None, d_history, (f"Picard iteration diverged: d_{k} = {d:.3e} exceeds "
                                         f"{DIVERGENCE_FACTOR:.0e}·d_0 = {d_history[0]:.3e}")
            if not gate:
                gate = k > 0 and d / d_history[-2] > MIX_GATE
                continue
            x = _mix(f, g, history)
            history = (f, g)
    return None, d_history, (f"Picard iteration did not reach tol_fp={tol_fp:.1e} within "
                             f"{max_iter} iterations")


def solve_nls_multipoint(sym: EllipticSymbol, grid: SpectralGrid, mp: MultipointSpec,
                         phi: Field, nl: PowerNonlinearity, s: float = 0.0,
                         nt: int = 200, tol_fp: float = DEFAULT_TOL_FP,
                         max_iter: int = DEFAULT_MAX_ITER,
                         eps_res: float = DEFAULT_EPS_RES) -> tuple[Trajectory, PicardDiagnostics]:
    """Iterate Φ from the linear multipoint solution until the metric distance
    of successive iterates drops below tol_fp; returns the trajectory and full
    convergence/conservation diagnostics.  A distance past DIVERGENCE_FACTOR·d_0,
    or a non-finite iterate past the first, ends the iteration as divergence."""
    check_picard_tolerances(tol_fp, max_iter)
    check_regularity(s)
    core = _MultipointCore(sym, grid, mp, phi, nt, eps_res, phase_table=True)
    r_metric, clamped = metric_exponent(grid.n, nl.p)  # reported; _metric_norm measures

    values, d_history, failure = _fixed_point(core, nl, tol_fp, max_iter)
    ratios = tuple(d_history[j + 1] / d_history[j]
                   for j in range(len(d_history) - 1) if d_history[j] > 0.0)

    eta = _eta(core, s, nl)
    if failure is not None:
        raise NoConvergenceError(
            f"{failure} (last distance {d_history[-1]:.3e}, eta={eta:.3e})",
            diagnostics={"d_history": tuple(d_history), "eta": eta},
        )

    final_residual = _residual(core, values, nl)
    current = core.wrap(values)

    exponents = [(pair.q, pair.r) for pair in canonical_pairs(grid.n)]
    observables = frame_observables(current, core.larr, nl, s, exponents)
    diags = PicardDiagnostics(
        iterations=len(d_history),
        d_history=tuple(d_history),
        contraction_ratios=ratios,
        final_residual=final_residual,
        eta=eta,
        mass_drift=_relative_drift(observables.mass),
        energy_drift=_relative_drift(observables.energy),
        r_metric=r_metric,
        metric_clamped=clamped,
        strichartz_value=observables.strichartz_value,
        min_abs_denominator=core.min_abs,
        observables=observables,
    )
    return current, diags
