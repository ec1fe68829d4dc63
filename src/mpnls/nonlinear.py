"""Picard fixed-point solver for the multipoint NLS i∂ₜu + Lu + λ|u|ᵖu = 0.

The solution map Φ re-solves the forced linear multipoint problem with
forcing -λ|u|ᵖu evaluated on the whole trajectory, so each iterate satisfies
the multipoint condition exactly; iteration runs over space-time because the
datum u₀ depends on future values u(λₖ) and time-marching cannot enforce
that.  Distances are measured in the contraction metric L_t^{p+2} L_x^r with
r = 2n(p+2)/(2(n-2)+np), clamped to 2 (and flagged) when the formula leaves
[2, ∞).  Smallness of the free evolution in that norm (the indicator η) is
the regime where contraction is expected; the solver reports η and the
measured contraction ratios rather than asserting a threshold.

Every propagation goes through the multipoint core of the linear module:
each Φ application is one `_MultipointCore` datum solve and one `_propagate`
pass, and the indicator η is one `_propagate` pass of |∇|^s φ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadExponentError, GridMismatchError, NoConvergenceError, NonFiniteError
from .grid import Field, SpectralGrid, Trajectory, forward_transform
from .linear import DEFAULT_EPS_RES, MultipointSpec, _MultipointCore, _propagate, symbol_lattice
from .norms import (FrameObservables, apply_riesz, canonical_pairs, check_power, check_sobolev_order,
                    critical_exponent, frame_observables, mixed_norm, strichartz_norm)
from .symbol import EllipticSymbol

DEFAULT_TOL_FP = 1e-10
DEFAULT_MAX_ITER = 50


@dataclass(frozen=True)
class PowerNonlinearity:
    """F(u) = λ|u|ᵖu; λ < 0 focusing, λ > 0 defocusing under i∂ₜu + Lu + F(u) = 0."""

    lam: float
    p: float

    def __post_init__(self):
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
    s: float
    s_c: float
    r_metric: float
    sigma: float
    metric_clamped: bool
    grad_s_mixed: float
    strichartz_value: float
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
    out = _power_block(f.values, nl)
    return Field._wrap(f.grid, out)


def _power_block(values: np.ndarray, nl: PowerNonlinearity) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        out = nl.lam * np.abs(values) ** nl.p * values
    if not np.all(np.isfinite(out)):
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


def smallness_indicator(sym: EllipticSymbol, grid: SpectralGrid, phi: Field, s: float,
                        nl: PowerNonlinearity, T: float, sigma: float | None = None,
                        t0: float = 0.0, nt: int = 200) -> float:
    """η = ‖|∇|^s U_L(t)φ‖ in L_t^{p+2}L_x^σ over [t0, T]; σ defaults to r(p,n)."""
    check_regularity(s)
    if sigma is None:
        sigma, _ = metric_exponent(grid.n, nl.p)
    larr = symbol_lattice(sym, grid)
    psi_hat = forward_transform(apply_riesz(phi, s)).values
    frames = _propagate(grid, larr, psi_hat, np.linspace(t0, T, nt + 1), t0)
    return mixed_norm(Trajectory._wrap(grid, t0, T, frames), nl.p + 2.0, sigma)


# --- the solution map ----------------------------------------------------------


def _solution_map(core: _MultipointCore, current: Trajectory | None,
                  nl: PowerNonlinearity) -> Trajectory:
    """Φ(current): the multipoint solution forced by -F(current); unforced for None."""
    ghat = None
    if current is not None:
        if current.grid != core.grid or current.nt != core.nt:
            raise GridMismatchError("iterate does not live on the solver grid")
        ghat = core.duhamel(-_power_block(current.values, nl))  # i∂ₜu + Lu = -F(u)
    traj = core.trajectory(ghat)
    if not np.all(np.isfinite(traj.values)):
        raise NonFiniteError("solution map produced non-finite values")
    return traj


def picard_step(sym: EllipticSymbol, grid: SpectralGrid, mp: MultipointSpec, phi: Field,
                nl: PowerNonlinearity, current: Trajectory,
                eps_res: float = DEFAULT_EPS_RES) -> Trajectory:
    """One application of the solution map Φ(current)."""
    core = _MultipointCore(sym, grid, mp, phi, current.nt, eps_res)
    return _solution_map(core, current, nl)


def integral_residual(sym: EllipticSymbol, grid: SpectralGrid, mp: MultipointSpec,
                      phi: Field, nl: PowerNonlinearity, traj: Trajectory,
                      eps_res: float = DEFAULT_EPS_RES) -> float:
    """Defect d(u, Φ(u)) of the integral equation in the contraction metric."""
    core = _MultipointCore(sym, grid, mp, phi, traj.nt, eps_res)
    r_metric, _ = metric_exponent(grid.n, nl.p)
    return mixed_norm(_solution_map(core, traj, nl) - traj, nl.p + 2.0, r_metric)


def _relative_drift(values: tuple[float, ...]) -> float:
    ref = values[0]
    floor = float(np.finfo(np.float64).eps)
    return max(abs(v - ref) for v in values) / max(abs(ref), floor)


def solve_nls_multipoint(sym: EllipticSymbol, grid: SpectralGrid, mp: MultipointSpec,
                         phi: Field, nl: PowerNonlinearity, s: float = 0.0,
                         nt: int = 200, tol_fp: float = DEFAULT_TOL_FP,
                         max_iter: int = DEFAULT_MAX_ITER,
                         eps_res: float = DEFAULT_EPS_RES,
                         sigma: float | None = None) -> tuple[Trajectory, PicardDiagnostics]:
    """Iterate Φ from the linear multipoint solution until the metric distance
    of successive iterates drops below tol_fp; returns the trajectory and full
    convergence/conservation diagnostics."""
    check_picard_tolerances(tol_fp, max_iter)
    check_regularity(s)
    core = _MultipointCore(sym, grid, mp, phi, nt, eps_res, phase_table=True)
    q_metric = nl.p + 2.0
    r_metric, clamped = metric_exponent(grid.n, nl.p)
    if sigma is None:
        sigma = r_metric

    current = _solution_map(core, None, nl)  # linear multipoint solution
    d_history: list[float] = []
    converged = False
    iterations = 0
    for _ in range(max_iter):
        nxt = _solution_map(core, current, nl)
        d = mixed_norm(nxt - current, q_metric, r_metric)
        if not np.isfinite(d):
            raise NonFiniteError(
                f"iteration diverged after {iterations} steps (metric distance not finite)"
            )
        d_history.append(d)
        iterations += 1
        current = nxt
        if d < tol_fp:
            converged = True
            break
    ratios = tuple(d_history[j + 1] / d_history[j]
                   for j in range(len(d_history) - 1) if d_history[j] > 0.0)

    eta = smallness_indicator(sym, grid, phi, s, nl, mp.T, sigma=sigma, t0=mp.t0, nt=nt)
    if not converged:
        raise NoConvergenceError(
            f"Picard iteration did not reach tol_fp={tol_fp:.1e} within {max_iter} "
            f"iterations (last distance {d_history[-1]:.3e}, eta={eta:.3e})",
            diagnostics={"d_history": tuple(d_history), "eta": eta},
        )

    final_residual = mixed_norm(_solution_map(core, current, nl) - current, q_metric, r_metric)

    observables = frame_observables(current, sym, nl, s)
    grad_traj = current if s == 0.0 else Trajectory._wrap(  # apply_riesz is the identity at s = 0
        grid, mp.t0, mp.T,
        np.stack([apply_riesz(current.frame(m), s).values for m in range(nt + 1)]),
    )
    report = critical_exponent(grid.n, nl.p, s)
    diags = PicardDiagnostics(
        iterations=iterations,
        d_history=tuple(d_history),
        contraction_ratios=ratios,
        final_residual=final_residual,
        eta=eta,
        mass_drift=_relative_drift(observables.mass),
        energy_drift=_relative_drift(observables.energy),
        s=float(s),
        s_c=report.s_c,
        r_metric=r_metric,
        sigma=float(sigma),
        metric_clamped=clamped,
        grad_s_mixed=mixed_norm(grad_traj, q_metric, sigma),
        strichartz_value=strichartz_norm(grad_traj, canonical_pairs(grid.n)),
        observables=observables,
    )
    return current, diags
