"""Config-driven command line interface: solves and estimate-verification sweeps.

Subcommands: solve-linear, solve-nls, verify-dispersive, verify-strichartz
(all take --config <path>, a strict-schema JSON file), plus classify and
check-admissible which take their parameters directly.  Reports separate
machine-readable data (CSV) from the run summary (JSON); given the same
config and package version the bytes are identical run to run.

Exit codes: 0 success, 2 config error, 3 resonance, 4 no convergence,
5 non-finite values encountered, 1 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    ConfigSyntaxError,
    MpnlsError,
    NoConvergenceError,
    NonFiniteError,
    ResonanceError,
    UnknownKeyError,
    ValidationError,
)
from .grid import Trajectory, build_grid, sample_profile, write_field_file
from .linear import (
    DEFAULT_EPS_RES,
    MultipointSpec,
    multipoint_denominator,
    multipoint_residual,
    solve_linear_multipoint,
    verify_dispersive,
    verify_strichartz,
)
from .nonlinear import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL_FP,
    PowerNonlinearity,
    check_regularity,
    solve_nls_multipoint,
)
from .norms import canonical_pairs, critical_exponent, frame_observables, is_admissible
from .symbol import validate_symbol

SUMMARY_KEYS = (
    "version", "config_echo", "s_c", "class", "eta", "iterations", "d_history",
    "contraction_ratios", "final_residual", "mass_drift", "energy_drift",
    "min_abs_denominator", "strichartz_pairs", "strichartz_value", "warnings",
)


# --- configuration schema ------------------------------------------------------


@dataclass(frozen=True)
class GridConfig:
    n: int
    N: int
    R: float


@dataclass(frozen=True)
class TimeConfig:
    t0: float
    T: float
    nt: int


@dataclass(frozen=True)
class MultipointTerm:
    alpha_re: float
    alpha_im: float
    lam: float


@dataclass(frozen=True)
class NonlinearityConfig:
    lam: float
    p: float


@dataclass(frozen=True)
class ToleranceConfig:
    eps_res: float = DEFAULT_EPS_RES
    tol_fp: float = DEFAULT_TOL_FP
    max_iter: int = DEFAULT_MAX_ITER


@dataclass(frozen=True)
class OutputConfig:
    report_path: str = "report"
    fields_path: str | None = None
    snapshot_frames: tuple = ()


@dataclass(frozen=True)
class DispersiveConfig:
    times: tuple
    p: float


@dataclass(frozen=True)
class StrichartzConfig:
    num_samples: int = 20
    seed: int = 0
    band: int = 8


@dataclass(frozen=True)
class SolveConfig:
    symbol_a: tuple
    grid: GridConfig
    time: TimeConfig
    multipoint: tuple
    initial: dict
    forcing: dict | None
    nonlinearity: NonlinearityConfig | None
    regularity: float
    tolerances: ToleranceConfig
    outputs: OutputConfig
    dispersive: DispersiveConfig | None
    strichartz: StrichartzConfig | None


def _check_keys(obj: dict, allowed: set, path: str):
    for key in obj:
        if key not in allowed:
            raise UnknownKeyError(f"unknown key '{path}{key}'")


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ValidationError(f"missing required key '{path}{key}'")
    return obj[key]


def _as_number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{where} must be a number, got {v!r}")
    if not math.isfinite(v):
        raise ValidationError(f"{where} must be finite, got {v!r}")
    return float(v)


def _as_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{where} must be an integer, got {v!r}")
    return v


def _as_exponent(v, where: str) -> float:
    if isinstance(v, str):
        if v.strip().lower() in ("inf", "infinity"):
            return math.inf
        raise ValidationError(f"{where} must be a number or 'inf', got {v!r}")
    return _as_number(v, where)


_PROFILE_KEYS = {
    "gaussian": {"kind", "amplitude", "width", "center"},
    "plane_wave": {"kind", "amplitude", "mode"},
    "from_file": {"kind", "path"},
}


def _validate_profile(spec, n: int, half_modes: int, path: str) -> dict:
    if not isinstance(spec, dict):
        raise ValidationError(f"{path} must be an object")
    kind = spec.get("kind")
    if kind not in _PROFILE_KEYS:
        raise ValidationError(f"{path}.kind must be one of {sorted(_PROFILE_KEYS)}, got {kind!r}")
    _check_keys(spec, _PROFILE_KEYS[kind], path + ".")
    out = {"kind": kind}
    if kind == "from_file":
        p = _need(spec, "path", path + ".")
        if not isinstance(p, str):
            raise ValidationError(f"{path}.path must be a string")
        out["path"] = p
        return out
    amp = spec.get("amplitude", 1.0)
    if isinstance(amp, list):
        if len(amp) != 2:
            raise ValidationError(f"{path}.amplitude pair must be [re, im]")
        out["amplitude"] = [_as_number(amp[0], f"{path}.amplitude[0]"),
                            _as_number(amp[1], f"{path}.amplitude[1]")]
    else:
        out["amplitude"] = _as_number(amp, f"{path}.amplitude")
    if kind == "gaussian":
        width = _as_number(spec.get("width", 1.0), f"{path}.width")
        if width <= 0.0:
            raise ValidationError(f"{path}.width must be positive")
        center = spec.get("center", [0.0] * n)
        if not isinstance(center, list):
            center = [center]
        if len(center) != n:
            raise ValidationError(f"{path}.center must have {n} entries")
        out["width"] = width
        out["center"] = [_as_number(c, f"{path}.center") for c in center]
    else:  # plane_wave
        mode = _need(spec, "mode", path + ".")
        if not isinstance(mode, list):
            mode = [mode]
        if len(mode) != n:
            raise ValidationError(f"{path}.mode must have {n} entries")
        jvals = []
        for j in mode:
            jf = _as_number(j, f"{path}.mode")
            if jf != round(jf):
                raise ValidationError(f"{path}.mode entries must be integers, got {j!r}")
            if abs(jf) > half_modes:
                raise ValidationError(f"{path}.mode entry {j!r} exceeds the lattice half-width")
            jvals.append(int(jf))
        out["mode"] = jvals
    return out


def parse_config(text: str) -> SolveConfig:
    """Parse and validate a JSON config; every module precondition is checked
    here so a config that parses will build its runtime objects."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigSyntaxError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigSyntaxError("config root must be a JSON object")
    _check_keys(raw, {"symbol", "grid", "time", "multipoint", "initial", "forcing",
                      "nonlinearity", "regularity", "tolerances", "outputs",
                      "dispersive", "strichartz"}, "")

    sym_raw = _need(raw, "symbol", "")
    _check_keys(sym_raw, {"a"}, "symbol.")
    a = _need(sym_raw, "a", "symbol.")
    if not isinstance(a, list) or not all(isinstance(row, list) for row in a):
        raise ValidationError("symbol.a must be a matrix (list of rows)")
    try:
        sym = validate_symbol([[_as_number(v, "symbol.a entry") for v in row] for row in a])
    except MpnlsError as exc:
        raise ValidationError(f"symbol.a: {exc}") from exc
    symbol_a = tuple(tuple(float(v) for v in row) for row in sym.a)

    grid_raw = _need(raw, "grid", "")
    _check_keys(grid_raw, {"n", "N", "R"}, "grid.")
    gc = GridConfig(_as_int(_need(grid_raw, "n", "grid."), "grid.n"),
                    _as_int(_need(grid_raw, "N", "grid."), "grid.N"),
                    _as_number(_need(grid_raw, "R", "grid."), "grid.R"))
    if sym.n != gc.n:
        raise ValidationError(f"symbol dimension {sym.n} does not match grid.n = {gc.n}")
    try:
        build_grid(gc.n, gc.N, gc.R)
    except MpnlsError as exc:
        raise ValidationError(f"grid: {exc}") from exc

    time_raw = _need(raw, "time", "")
    _check_keys(time_raw, {"t0", "T", "Nt"}, "time.")
    tc = TimeConfig(_as_number(_need(time_raw, "t0", "time."), "time.t0"),
                    _as_number(_need(time_raw, "T", "time."), "time.T"),
                    _as_int(_need(time_raw, "Nt", "time."), "time.Nt"))
    if not (tc.T > tc.t0):
        raise ValidationError(f"time: T={tc.T} must exceed t0={tc.t0}")
    if tc.nt < 1:
        raise ValidationError(f"time.Nt must be >= 1, got {tc.nt}")

    terms = []
    for i, item in enumerate(raw.get("multipoint", [])):
        path = f"multipoint[{i}]."
        _check_keys(item, {"alpha_re", "alpha_im", "lambda"}, path)
        term = MultipointTerm(_as_number(item.get("alpha_re", 0.0), path + "alpha_re"),
                              _as_number(item.get("alpha_im", 0.0), path + "alpha_im"),
                              _as_number(_need(item, "lambda", path), path + "lambda"))
        if not (tc.t0 < term.lam <= tc.T):
            raise ValidationError(f"{path}lambda out of (t0,T]: {term.lam}")
        terms.append(term)
    if len({t.lam for t in terms}) != len(terms):
        raise ValidationError("multipoint lambda values must be distinct")

    half_modes = gc.N // 2
    initial = _validate_profile(_need(raw, "initial", ""), gc.n, half_modes, "initial")

    forcing = raw.get("forcing")
    if forcing is not None:
        _check_keys(forcing, {"profile", "envelope"}, "forcing.")
        prof = _validate_profile(_need(forcing, "profile", "forcing."), gc.n, half_modes,
                                 "forcing.profile")
        env = forcing.get("envelope", {"kind": "constant"})
        kind = env.get("kind") if isinstance(env, dict) else None
        if kind == "constant":
            _check_keys(env, {"kind"}, "forcing.envelope.")
            env_out = {"kind": "constant"}
        elif kind == "harmonic":
            _check_keys(env, {"kind", "omega"}, "forcing.envelope.")
            env_out = {"kind": "harmonic",
                       "omega": _as_number(_need(env, "omega", "forcing.envelope."),
                                           "forcing.envelope.omega")}
        else:
            raise ValidationError("forcing.envelope.kind must be 'constant' or 'harmonic'")
        forcing = {"profile": prof, "envelope": env_out}

    nl_raw = raw.get("nonlinearity")
    nl_cfg = None
    if nl_raw is not None:
        _check_keys(nl_raw, {"lambda", "p"}, "nonlinearity.")
        nl_cfg = NonlinearityConfig(_as_number(_need(nl_raw, "lambda", "nonlinearity."),
                                               "nonlinearity.lambda"),
                                    _as_number(_need(nl_raw, "p", "nonlinearity."),
                                               "nonlinearity.p"))
        if not (nl_cfg.p > 0.0):
            raise ValidationError(f"nonlinearity.p must be positive, got {nl_cfg.p}")

    regularity = _as_number(raw.get("regularity", 0.0), "regularity")
    if not (0.0 <= regularity <= 2.0):
        raise ValidationError(f"regularity must be in [0, 2], got {regularity}")
    if nl_cfg is not None:
        try:
            check_regularity(regularity)
        except MpnlsError as exc:
            raise ValidationError(str(exc)) from exc

    tol_raw = raw.get("tolerances", {})
    _check_keys(tol_raw, {"eps_res", "tol_fp", "max_iter"}, "tolerances.")
    tol = ToleranceConfig(_as_number(tol_raw.get("eps_res", DEFAULT_EPS_RES), "tolerances.eps_res"),
                          _as_number(tol_raw.get("tol_fp", DEFAULT_TOL_FP), "tolerances.tol_fp"),
                          _as_int(tol_raw.get("max_iter", DEFAULT_MAX_ITER), "tolerances.max_iter"))
    if tol.eps_res <= 0.0 or tol.tol_fp <= 0.0 or tol.max_iter < 1:
        raise ValidationError("tolerances must satisfy eps_res > 0, tol_fp > 0, max_iter >= 1")

    out_raw = raw.get("outputs", {})
    _check_keys(out_raw, {"report_path", "fields_path", "snapshot_frames"}, "outputs.")
    frames = out_raw.get("snapshot_frames", [0, tc.nt])
    if not isinstance(frames, list):
        raise ValidationError("outputs.snapshot_frames must be a list of frame indices")
    frames = tuple(_as_int(f, "outputs.snapshot_frames entry") for f in frames)
    for f in frames:
        if f < 0 or f > tc.nt:
            raise ValidationError(f"outputs.snapshot_frames entry {f} outside [0, Nt]")
    rp = out_raw.get("report_path", "report")
    fp = out_raw.get("fields_path")
    if not isinstance(rp, str) or (fp is not None and not isinstance(fp, str)):
        raise ValidationError("outputs paths must be strings")
    outputs = OutputConfig(rp, fp, frames)

    disp_raw = raw.get("dispersive")
    dispersive = None
    if disp_raw is not None:
        _check_keys(disp_raw, {"times", "p"}, "dispersive.")
        times_raw = disp_raw.get("times", [float(t) for t in np.geomspace(2.0, 20.0, 8)])
        if not isinstance(times_raw, list) or not times_raw:
            raise ValidationError("dispersive.times must be a nonempty list")
        times = tuple(_as_number(t, "dispersive.times entry") for t in times_raw)
        for t in times:
            if t <= 0.0:
                raise ValidationError(f"dispersive.times entries must be positive, got {t}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("dispersive.times must be strictly increasing")
        p_exp = _as_exponent(disp_raw.get("p", "inf"), "dispersive.p")
        if p_exp < 2.0:
            raise ValidationError(f"dispersive.p must be >= 2, got {p_exp}")
        dispersive = DispersiveConfig(times, p_exp)

    st_raw = raw.get("strichartz")
    strichartz = None
    if st_raw is not None:
        _check_keys(st_raw, {"num_samples", "seed", "band"}, "strichartz.")
        strichartz = StrichartzConfig(_as_int(st_raw.get("num_samples", 20), "strichartz.num_samples"),
                                      _as_int(st_raw.get("seed", 0), "strichartz.seed"),
                                      _as_int(st_raw.get("band", 8), "strichartz.band"))
        if strichartz.num_samples < 1 or strichartz.band < 1:
            raise ValidationError("strichartz.num_samples and strichartz.band must be >= 1")
        if strichartz.band >= gc.N // 2:
            raise ValidationError(f"strichartz.band must be < N/2 = {gc.N // 2}")

    return SolveConfig(symbol_a, gc, tc, tuple(terms), initial, forcing, nl_cfg,
                       regularity, tol, outputs, dispersive, strichartz)


def _num_out(x: float):
    if x == math.inf:
        return "inf"
    return x


def config_to_dict(cfg: SolveConfig) -> dict:
    """Canonical JSON-ready form; parse(serialize(cfg)) == cfg."""
    doc = {
        "symbol": {"a": [list(row) for row in cfg.symbol_a]},
        "grid": {"n": cfg.grid.n, "N": cfg.grid.N, "R": cfg.grid.R},
        "time": {"t0": cfg.time.t0, "T": cfg.time.T, "Nt": cfg.time.nt},
        "multipoint": [{"alpha_re": t.alpha_re, "alpha_im": t.alpha_im, "lambda": t.lam}
                       for t in cfg.multipoint],
        "initial": cfg.initial,
        "forcing": cfg.forcing,
        "nonlinearity": None if cfg.nonlinearity is None else
            {"lambda": cfg.nonlinearity.lam, "p": cfg.nonlinearity.p},
        "regularity": cfg.regularity,
        "tolerances": {"eps_res": cfg.tolerances.eps_res, "tol_fp": cfg.tolerances.tol_fp,
                       "max_iter": cfg.tolerances.max_iter},
        "outputs": {"report_path": cfg.outputs.report_path,
                    "fields_path": cfg.outputs.fields_path,
                    "snapshot_frames": list(cfg.outputs.snapshot_frames)},
    }
    if cfg.dispersive is not None:
        doc["dispersive"] = {"times": list(cfg.dispersive.times), "p": _num_out(cfg.dispersive.p)}
    if cfg.strichartz is not None:
        doc["strichartz"] = {"num_samples": cfg.strichartz.num_samples,
                             "seed": cfg.strichartz.seed, "band": cfg.strichartz.band}
    return doc


def serialize_config(cfg: SolveConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n"


# --- runtime assembly ----------------------------------------------------------


def _build_runtime(cfg: SolveConfig):
    sym = validate_symbol([list(row) for row in cfg.symbol_a])
    grid = build_grid(cfg.grid.n, cfg.grid.N, cfg.grid.R)
    mp = MultipointSpec(cfg.time.t0, cfg.time.T,
                        tuple((complex(t.alpha_re, t.alpha_im), t.lam) for t in cfg.multipoint))
    phi = sample_profile(grid, cfg.initial)
    forcing = None
    if cfg.forcing is not None:
        base = sample_profile(grid, cfg.forcing["profile"])
        env = cfg.forcing["envelope"]
        times = np.linspace(cfg.time.t0, cfg.time.T, cfg.time.nt + 1)
        if env["kind"] == "constant":
            g = np.ones_like(times, dtype=np.complex128)
        else:
            g = np.exp(-1j * env["omega"] * times)
        vals = g[(...,) + (None,) * grid.n] * base.values[None, ...]
        forcing = Trajectory(grid, cfg.time.t0, cfg.time.T, vals)
    nl = None if cfg.nonlinearity is None else PowerNonlinearity(cfg.nonlinearity.lam,
                                                                 cfg.nonlinearity.p)
    return sym, grid, mp, phi, forcing, nl


# --- report emission -----------------------------------------------------------


@dataclass
class RunResult:
    kind: str
    traj: Trajectory | None = None
    observables: object = None
    mp_residual: float | None = None
    min_abs_denominator: float | None = None
    diagnostics: object = None
    dispersive: object = None
    strichartz: object = None
    warnings: tuple = ()


def _fmt(x) -> str:
    return repr(float(x))


def _timeseries_csv(result: RunResult) -> str:
    obs = result.observables
    rows = zip(result.traj.times, obs.mass, obs.energy, obs.l2, obs.linf, obs.sobolev_s)
    lines = [",".join(_fmt(x) for x in row + (result.mp_residual,)) for row in rows]
    return "\n".join(["t,mass,energy,l2,linf,sobolev_s,multipoint_residual"] + lines) + "\n"


def _dispersive_csv(result: RunResult) -> str:
    rep = result.dispersive
    lines = ["t,norm_p,quotient,boundary_mass_fraction"]
    for t, nrm, q, frac in zip(rep.times, rep.norms, rep.quotients, rep.boundary_fractions):
        lines.append(",".join([_fmt(t), _fmt(nrm), _fmt(q), _fmt(frac)]))
    lines.append(f"# slope {_fmt(rep.slope)}")
    return "\n".join(lines) + "\n"


def _strichartz_csv(result: RunResult) -> str:
    rep = result.strichartz
    lines = ["sample,data_l2,ratio"]
    for i, (l2, ratio) in enumerate(zip(rep.data_norms, rep.ratios)):
        lines.append(",".join([str(i), _fmt(l2), _fmt(ratio)]))
    return "\n".join(lines) + "\n"


def _summary_json(result: RunResult, cfg: SolveConfig) -> str:
    doc = {key: None for key in SUMMARY_KEYS}
    doc["version"] = __version__
    doc["config_echo"] = config_to_dict(cfg)
    doc["warnings"] = list(result.warnings)
    if cfg.nonlinearity is not None:
        rep = critical_exponent(cfg.grid.n, cfg.nonlinearity.p, cfg.regularity)
        doc["s_c"] = rep.s_c
        doc["class"] = rep.classification
    doc["min_abs_denominator"] = result.min_abs_denominator
    diags = result.diagnostics
    if diags is not None:
        doc["eta"] = diags.eta
        doc["iterations"] = diags.iterations
        doc["d_history"] = list(diags.d_history)
        doc["contraction_ratios"] = list(diags.contraction_ratios)
        doc["final_residual"] = diags.final_residual
        doc["mass_drift"] = diags.mass_drift
        doc["energy_drift"] = diags.energy_drift
        doc["strichartz_pairs"] = [p.label() for p in canonical_pairs(cfg.grid.n)]
        doc["strichartz_value"] = diags.strichartz_value
    if result.strichartz is not None:
        doc["strichartz_pairs"] = result.strichartz.pair_labels
        doc["strichartz_value"] = result.strichartz.max_ratio
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_report(result: RunResult, cfg: SolveConfig) -> list[str]:
    """Emit <report_path>.csv and <report_path>.json (plus field snapshots for
    solve runs when fields_path is set); returns the written paths."""
    base = Path(cfg.outputs.report_path)
    if base.parent != Path("."):
        base.parent.mkdir(parents=True, exist_ok=True)
    csv_path = base.with_name(base.name + ".csv")
    json_path = base.with_name(base.name + ".json")
    if result.kind in ("solve-linear", "solve-nls"):
        csv_text = _timeseries_csv(result)
    elif result.kind == "verify-dispersive":
        csv_text = _dispersive_csv(result)
    else:
        csv_text = _strichartz_csv(result)
    csv_path.write_text(csv_text)
    json_path.write_text(_summary_json(result, cfg))
    written = [str(csv_path), str(json_path)]
    if result.traj is not None and cfg.outputs.fields_path is not None:
        field_dir = Path(cfg.outputs.fields_path)
        field_dir.mkdir(parents=True, exist_ok=True)
        for m in cfg.outputs.snapshot_frames:
            snap = field_dir / f"frame_{m:05d}.fld"
            write_field_file(result.traj.frame(m), snap)
            written.append(str(snap))
    return written


# --- subcommand runners ----------------------------------------------------------


def _load_config(path: str) -> SolveConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _run_solve_linear(cfg: SolveConfig) -> RunResult:
    sym, grid, mp, phi, forcing, nl = _build_runtime(cfg)
    denom = multipoint_denominator(sym, grid, mp)
    traj = solve_linear_multipoint(sym, grid, mp, phi, forcing, cfg.time.nt,
                                   eps_res=cfg.tolerances.eps_res)
    return RunResult(
        kind="solve-linear", traj=traj,
        observables=frame_observables(traj, sym, nl, cfg.regularity),
        mp_residual=multipoint_residual(traj, mp, phi),
        min_abs_denominator=denom.min_abs,
    )


def _run_solve_nls(cfg: SolveConfig) -> RunResult:
    sym, grid, mp, phi, forcing, nl = _build_runtime(cfg)
    if nl is None:
        raise ValidationError("solve-nls requires a nonlinearity section")
    if forcing is not None:
        raise ValidationError("solve-nls does not support external forcing")
    denom = multipoint_denominator(sym, grid, mp)
    traj, diags = solve_nls_multipoint(sym, grid, mp, phi, nl, s=cfg.regularity,
                                       nt=cfg.time.nt, tol_fp=cfg.tolerances.tol_fp,
                                       max_iter=cfg.tolerances.max_iter,
                                       eps_res=cfg.tolerances.eps_res)
    warnings = ()
    if diags.metric_clamped:
        warnings = ("contraction metric exponent clamped to r=2 (formula left [2,inf))",)
    return RunResult(
        kind="solve-nls", traj=traj, observables=diags.observables,
        mp_residual=multipoint_residual(traj, mp, phi),
        min_abs_denominator=denom.min_abs, diagnostics=diags, warnings=warnings,
    )


def _run_verify_dispersive(cfg: SolveConfig) -> RunResult:
    sym, grid, _, phi, _, _ = _build_runtime(cfg)
    disp = cfg.dispersive
    if disp is None:
        disp = DispersiveConfig(tuple(float(t) for t in np.geomspace(2.0, 20.0, 8)), math.inf)
    rep = verify_dispersive(sym, grid, phi, disp.times, disp.p)
    warnings = ()
    if rep.wraparound:
        warnings = ("wrap-around: more than 1% of mass in the outer 10% shell; "
                    "increase R for trustworthy decay rates",)
    return RunResult(kind="verify-dispersive", dispersive=rep, warnings=warnings)


def _run_verify_strichartz(cfg: SolveConfig) -> RunResult:
    sym, grid, _, _, _, _ = _build_runtime(cfg)
    st = cfg.strichartz or StrichartzConfig()
    rep = verify_strichartz(sym, grid, t0=cfg.time.t0, T=cfg.time.T, nt=cfg.time.nt,
                            num_samples=st.num_samples, seed=st.seed, band=st.band)
    return RunResult(kind="verify-strichartz", strichartz=rep)


_RUNNERS = {
    "solve-linear": _run_solve_linear,
    "solve-nls": _run_solve_nls,
    "verify-dispersive": _run_verify_dispersive,
    "verify-strichartz": _run_verify_strichartz,
}


def _parse_exponent_arg(text: str) -> Fraction | float:
    t = text.strip().lower()
    if t in ("inf", "infinity"):
        return math.inf
    try:
        return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse exponent {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mpnls",
                                     description="Multipoint Schrödinger solver and "
                                                 "estimate-verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
    p_cls = sub.add_parser("classify")
    p_cls.add_argument("--n", required=True, type=int)
    p_cls.add_argument("--p", required=True, type=float)
    p_cls.add_argument("--s", required=True, type=float)
    p_adm = sub.add_parser("check-admissible")
    p_adm.add_argument("--n", required=True, type=int)
    p_adm.add_argument("--q", required=True, type=str)
    p_adm.add_argument("--r", required=True, type=str)
    return parser


def run_command(argv) -> int:
    """Dispatch a subcommand; errors are mapped to the documented exit codes."""
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "classify":
            rep = critical_exponent(args.n, args.p, args.s)
            print(json.dumps({"n": args.n, "p": args.p, "s": args.s,
                              "s_c": rep.s_c, "class": rep.classification}, sort_keys=True))
            return 0
        if args.command == "check-admissible":
            q = _parse_exponent_arg(args.q)
            r = _parse_exponent_arg(args.r)
            verdict = is_admissible(args.n, q, r)
            print(json.dumps({"n": args.n, "q": args.q, "r": args.r, "result": verdict},
                             sort_keys=True))
            return 0
        cfg = _load_config(args.config)
        result = _RUNNERS[args.command](cfg)
        for path in write_report(result, cfg):
            print(path)
        return 0
    except ResonanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except MpnlsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
