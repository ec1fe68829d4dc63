"""Config-driven command line interface: solves and estimate-verification sweeps.

Subcommands: solve-linear, solve-nls, verify-dispersive, verify-strichartz
(all take --config <path>, a strict-schema JSON file), plus classify and
check-admissible which take their parameters directly.  Reports separate
machine-readable data (CSV) from the run summary (JSON); given the same
config and package version the bytes are identical run to run.

Exit codes: 0 success, 2 config error, 3 resonance, 4 no convergence,
5 non-finite values encountered, 1 I/O failure.
"""

import argparse
import itertools
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import NewType, get_args, get_origin

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
from .grid import Field, build_grid, check_profile, sample_profile, time_step, write_field_file
from .linear import (
    DEFAULT_EPS_RES,
    DEFAULT_STRICHARTZ_BAND,
    DEFAULT_STRICHARTZ_SAMPLES,
    DEFAULT_STRICHARTZ_SEED,
    MultipointSpec,
    SeparableForcing,
    check_dispersive,
    check_eps_res,
    check_strichartz,
    multipoint_residual,
    _multipoint_defect,
    _MultipointCore,
    verify_dispersive,
    verify_strichartz,
)
from .nonlinear import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL_FP,
    PowerNonlinearity,
    check_picard_tolerances,
    check_regularity,
    solve_nls_multipoint,
)
from .norms import (_observables, canonical_pairs, check_sobolev_order, critical_exponent,
                    is_admissible)
from .symbol import validate_symbol

# The exit code of an error is that of the first class it is an instance of.
EXIT_CODES = ((ResonanceError, 3), (NoConvergenceError, 4), (NonFiniteError, 5),
              (MpnlsError, 2), (OSError, 1))

SUMMARY_KEYS = (
    "version", "config_echo", "s_c", "class", "eta", "iterations", "d_history",
    "contraction_ratios", "final_residual", "mass_drift", "energy_drift",
    "min_abs_denominator", "strichartz_pairs", "strichartz_value", "warnings",
)


# --- configuration schema ------------------------------------------------------

Exponent = NewType("Exponent", float)  # a Lebesgue exponent: a number, or "inf" in JSON


@dataclass(frozen=True)
class SymbolConfig:
    a: tuple[tuple[float, ...], ...]


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


@dataclass(frozen=True, kw_only=True)
class MultipointTerm:
    alpha_re: float = 0.0
    alpha_im: float = 0.0
    lam: float


@dataclass(frozen=True)
class ConstantEnvelope:
    kind: str = "constant"


@dataclass(frozen=True, kw_only=True)
class HarmonicEnvelope:
    kind: str = "harmonic"
    omega: float


@dataclass(frozen=True)
class ForcingConfig:
    profile: dict
    envelope: ConstantEnvelope | HarmonicEnvelope = ConstantEnvelope()


@dataclass(frozen=True)
class ToleranceConfig:
    eps_res: float = DEFAULT_EPS_RES
    tol_fp: float = DEFAULT_TOL_FP
    max_iter: int = DEFAULT_MAX_ITER


@dataclass(frozen=True)
class OutputConfig:
    report_path: str = "report"
    fields_path: str | None = None
    snapshot_frames: tuple[int, ...] = None  # absent: (0, Nt), which parse_config fills in


@dataclass(frozen=True)
class DispersiveConfig:
    times: tuple[float, ...] = tuple(float(t) for t in np.geomspace(2.0, 20.0, 8))
    p: Exponent = math.inf


@dataclass(frozen=True)
class StrichartzConfig:
    num_samples: int = DEFAULT_STRICHARTZ_SAMPLES
    seed: int = DEFAULT_STRICHARTZ_SEED
    band: int = DEFAULT_STRICHARTZ_BAND


@dataclass(frozen=True, kw_only=True)
class SolveConfig:
    symbol: SymbolConfig
    grid: GridConfig
    time: TimeConfig
    multipoint: tuple[MultipointTerm, ...] = ()
    initial: dict
    forcing: ForcingConfig | None = None
    nonlinearity: PowerNonlinearity | None = None
    regularity: float = 0.0
    tolerances: ToleranceConfig = ToleranceConfig()
    outputs: OutputConfig = OutputConfig()
    dispersive: DispersiveConfig | None = None
    strichartz: StrichartzConfig | None = None


_JSON_KEYS = {"lam": "lambda", "nt": "Nt"}  # the JSON keys that differ from their field names


def _check_keys(obj: dict, allowed, path: str):
    for key in obj:
        if key not in allowed:
            raise UnknownKeyError(f"unknown key '{path}{key}'")


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ValidationError(f"missing required key '{path}{key}'")
    return obj[key]


def _object(raw, path: str) -> dict:
    if not isinstance(raw, dict):
        raise ValidationError(f"{path} must be an object")
    return raw


def _checked(path: str, check, *args, **kwargs):
    """Call the module function that owns a value rule; its error becomes a
    ValidationError naming the config path."""
    try:
        return check(*args, **kwargs)
    except (MpnlsError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _as_number(v, where: str, shape: str = "a number") -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{where} must be {shape}, got {v!r}")
    if not abs(v) <= sys.float_info.max:  # exact for ints too: no overflow converting them
        raise ValidationError(f"{where} must be finite, got {v!r}")
    return float(v)


def _as_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{where} must be an integer, got {v!r}")
    return v


def _as_str(v, where: str) -> str:
    if not isinstance(v, str):
        raise ValidationError(f"{where} must be a string, got {v!r}")
    return v


def _as_exponent(v, where: str) -> float:
    if isinstance(v, str):
        if v.strip().lower() in ("inf", "infinity"):
            return math.inf
        raise ValidationError(f"{where} must be a number or 'inf', got {v!r}")
    return _as_number(v, where)


_SCALARS = {float: _as_number, int: _as_int, str: _as_str, Exponent: _as_exponent}


def _read(tp, v, path: str):
    """A JSON value read as the field type tp: a scalar, a profile dict (left to
    _validate_profile), X | None, tuple[X, ...] from a list, a dataclass, or a union of
    dataclasses chosen by the value's "kind" among their `kind` defaults."""
    if tp in _SCALARS:
        return _SCALARS[tp](v, path)
    if tp is dict:
        return v
    if is_dataclass(tp):
        return _section(tp, v, path)
    args = get_args(tp)
    if get_origin(tp) is tuple:
        if not isinstance(v, list):
            raise ValidationError(f"{path} must be a list, got {v!r}")
        return tuple(_read(args[0], x, f"{path}[{i}]") for i, x in enumerate(v))
    if type(None) in args:
        return None if v is None else _read(args[0], v, path)
    tags = {cls.kind: cls for cls in args}
    kind = _object(v, path).get("kind")
    if not isinstance(kind, str) or kind not in tags:
        raise ValidationError(f"{path}.kind must be one of {sorted(tags)}, got {kind!r}")
    return _section(tags[kind], v, path)


def _section(cls, raw, path: str):
    """Read a config section off its dataclass: an object keyed by the fields' JSON keys,
    where a field with no default is required and each value is read by its field's type.
    A library type's own rules (PowerNonlinearity's) run as it is made, naming the section."""
    spec = {_JSON_KEYS.get(f.name, f.name): f for f in fields(cls)}
    prefix = path + "." if path else ""
    _check_keys(_object(raw, path), spec, prefix)
    return _checked(path, cls, **{f.name: _read(f.type, _need(raw, key, prefix), prefix + key)
                                  for key, f in spec.items() if key in raw or f.default is MISSING})


_PROFILE_KEYS = {
    "gaussian": {"kind", "amplitude", "width", "center"},
    "plane_wave": {"kind", "amplitude", "mode"},
    "from_file": {"kind", "path"},
}


def _validate_profile(spec, grid, path: str) -> dict:
    """A profile's schema here; its defaults and value rules in grid.check_profile."""
    kind = _object(spec, path).get("kind")
    if not isinstance(kind, str) or kind not in _PROFILE_KEYS:
        raise ValidationError(f"{path}.kind must be one of {sorted(_PROFILE_KEYS)}, got {kind!r}")
    _check_keys(spec, _PROFILE_KEYS[kind], path + ".")
    if kind == "from_file":
        _as_str(_need(spec, "path", path + "."), f"{path}.path")
        return dict(spec)
    if kind == "plane_wave":
        _need(spec, "mode", path + ".")
    vec = f"a list of {grid.n} numbers"  # a bare number is check_profile's to take or reject
    shapes = dict(width="a number", amplitude="a number or a [re, im] pair", center=vec, mode=vec)
    typed = {key: _as_number(v, f"{path}.{key}", shapes[key]) if key == "width"
             or not isinstance(v, list) else [_as_number(x, f"{path}.{key} entry") for x in v]
             for key, v in spec.items() if key != "kind"}
    return _checked(path, check_profile, grid, dict(typed, kind=kind))


def parse_config(text: str, command: str | None = None) -> SolveConfig:
    """Parse and validate a JSON config, so that a config that parses runs.

    The schema is read off SolveConfig's dataclasses, a profile's by _validate_profile.
    Every value rule is checked by calling the module function that owns it; parse itself
    holds only the rules of the CLI: the symbol's size against grid.n, solve-nls's need of
    a nonlinearity and refusal of a forcing, a report path that names a file, and snapshot
    frames in [0, Nt].  For `command` verify-strichartz the default band is checked too.
    """
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal too long to convert
        raise ConfigSyntaxError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigSyntaxError("config root must be a JSON object")
    cfg = _section(SolveConfig, raw, "")

    sym = _checked("symbol.a", validate_symbol, cfg.symbol.a)
    gc, tc = cfg.grid, cfg.time
    if sym.n != gc.n:
        raise ValidationError(f"symbol dimension {sym.n} does not match grid.n = {gc.n}")
    grid = _checked("grid", build_grid, gc.n, gc.N, gc.R)
    _checked("time", MultipointSpec, tc.t0, tc.T)
    _checked("time", time_step, tc.t0, tc.T, tc.nt)
    for i, term in enumerate(cfg.multipoint):
        # a one-term spec checks λ ∈ (t0, T]; its frame index, that λ is a grid time
        _checked(f"multipoint[{i}].lambda",
                 lambda: MultipointSpec(tc.t0, tc.T, ((0.0, term.lam),)).frame_indices(tc.nt))
    # and one spec of all the terms, that the λ are distinct
    _checked("multipoint", MultipointSpec, tc.t0, tc.T, tuple((0.0, t.lam) for t in cfg.multipoint))

    initial = _validate_profile(cfg.initial, grid, "initial")
    forcing = cfg.forcing
    if forcing is not None:
        profile = _validate_profile(forcing.profile, grid, "forcing.profile")
        forcing = replace(forcing, profile=profile)

    nl = cfg.nonlinearity
    if command == "solve-nls" and nl is None:
        raise ValidationError("missing required key 'nonlinearity': solve-nls needs one")
    if command == "solve-nls" and forcing is not None:
        raise ValidationError("key 'forcing' is not supported by solve-nls")

    _checked("regularity", check_sobolev_order if nl is None else check_regularity, cfg.regularity)

    _checked("tolerances", check_eps_res, cfg.tolerances.eps_res)
    _checked("tolerances", check_picard_tolerances, cfg.tolerances.tol_fp, cfg.tolerances.max_iter)

    out = cfg.outputs
    if not Path(out.report_path).name:  # write_report names its files after the last component
        raise ValidationError(f"outputs.report_path must name a file, got {out.report_path!r}")
    frames = (0, tc.nt) if out.snapshot_frames is None else out.snapshot_frames
    for f in frames:
        if f < 0 or f > tc.nt:
            raise ValidationError(f"outputs.snapshot_frames entry {f} outside [0, Nt]")

    if cfg.dispersive is not None:
        _checked("dispersive", check_dispersive, cfg.dispersive.times, cfg.dispersive.p)
    if cfg.strichartz is not None or command == "verify-strichartz":
        st = cfg.strichartz or StrichartzConfig()
        _checked("strichartz", check_strichartz, grid, st.num_samples, st.seed, st.band)

    return replace(cfg, symbol=SymbolConfig(tuple(tuple(float(v) for v in row) for row in sym.a)),
                   initial=initial, forcing=forcing, outputs=replace(out, snapshot_frames=frames))


def _json_pairs(pairs) -> dict:
    """asdict's dict_factory: each field under its JSON key, an infinite exponent as "inf"."""
    return {_JSON_KEYS.get(k, k): "inf" if v == math.inf else v for k, v in pairs}


def config_to_dict(cfg: SolveConfig) -> dict:
    """Canonical JSON-ready form, the summary's `config_echo`:
    parse_config(json.dumps(config_to_dict(cfg))) == cfg."""
    return {key: v for key, v in asdict(cfg, dict_factory=_json_pairs).items()
            if v is not None or key not in ("dispersive", "strichartz")}  # absent, not null


# --- runtime assembly ----------------------------------------------------------


def _build_runtime(cfg: SolveConfig, datum: bool = True):
    """A config's objects; the datum only if the runner reads it."""
    sym = validate_symbol(cfg.symbol.a)
    grid = build_grid(cfg.grid.n, cfg.grid.N, cfg.grid.R)
    mp = MultipointSpec(cfg.time.t0, cfg.time.T,
                        tuple((complex(t.alpha_re, t.alpha_im), t.lam) for t in cfg.multipoint))
    phi = sample_profile(grid, cfg.initial) if datum else None
    return sym, grid, mp, phi, cfg.nonlinearity


# --- report emission -----------------------------------------------------------


@dataclass
class RunResult:
    """A run's report: its CSV text, the SUMMARY_KEYS it fills and a solve's snapshot frames."""
    csv: str
    summary: dict
    snapshots: dict | None = None


def _csv(header: str, rows) -> str:
    """CSV text: the header, then a line per row; an int cell as itself, any other as the
    repr of a float."""
    lines = [",".join(str(x) if isinstance(x, int) else repr(float(x)) for x in row)
             for row in rows]
    return "\n".join([header] + lines) + "\n"


def _timeseries_csv(times, obs, mp_residual: float) -> str:
    rows = zip(times, obs.mass, obs.energy, obs.l2, obs.linf, obs.sobolev_s,
               itertools.repeat(mp_residual))
    return _csv("t,mass,energy,l2,linf,sobolev_s,multipoint_residual", rows)


def _summary_json(result: RunResult, cfg: SolveConfig) -> str:
    """The summary: version, config echo and the class of the nonlinearity, under what
    the run filled in; a key that neither sets is null, and the warnings default to []."""
    doc = dict.fromkeys(SUMMARY_KEYS)
    doc.update(version=__version__, config_echo=config_to_dict(cfg), warnings=[])
    if cfg.nonlinearity is not None:
        rep = critical_exponent(cfg.grid.n, cfg.nonlinearity.p, cfg.regularity)
        doc["s_c"], doc["class"] = rep.s_c, rep.classification
    doc.update(result.summary)
    return _finite_json(doc, indent=2) + "\n"


def _finite_json(doc: dict, indent=None) -> str:
    """`doc` as JSON; an inf or NaN, which JSON lacks, raises NonFiniteError naming its key."""
    for key in sorted(doc):
        try:
            json.dumps(doc[key], allow_nan=False)
        except ValueError:
            raise NonFiniteError(f"summary value '{key}' is not finite") from None
    return json.dumps(doc, sort_keys=True, indent=indent, allow_nan=False)


def write_report(result: RunResult, cfg: SolveConfig) -> list[str]:
    """Emit <report_path>.csv and <report_path>.json (plus the result's snapshot frames
    when fields_path is set); returns the written paths."""
    base = Path(cfg.outputs.report_path)
    if base.parent != Path("."):
        base.parent.mkdir(parents=True, exist_ok=True)
    csv_path = base.with_name(base.name + ".csv")
    json_path = base.with_name(base.name + ".json")
    json_path.write_text(_summary_json(result, cfg))  # first: a non-finite summary writes nothing
    csv_path.write_text(result.csv)
    written = [str(csv_path), str(json_path)]
    if result.snapshots is not None and cfg.outputs.fields_path is not None:
        field_dir = Path(cfg.outputs.fields_path)
        field_dir.mkdir(parents=True, exist_ok=True)
        for m in cfg.outputs.snapshot_frames:
            snap = field_dir / f"frame_{m:05d}.fld"
            write_field_file(result.snapshots[m], snap)
            written.append(str(snap))
    return written


# --- subcommand runners ----------------------------------------------------------


def _load_config(path: str, command: str) -> SolveConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, command)


def _solve_result(cfg: SolveConfig, grid, times, frames, obs, residual, summary) -> RunResult:
    """A solve's report on its time axis: observables, residual, a summary with its core's
    min|D|, snapshots."""
    snapshots = {m: Field._wrap(grid, frames[m]) for m in cfg.outputs.snapshot_frames}
    return RunResult(_timeseries_csv(times, obs, residual), summary, snapshots)


def _keeping(blocks, kept: dict):
    """Passes blocks of frames on, copying each frame whose number is a key of `kept` there."""
    numbers = itertools.count()
    for block in blocks:
        kept.update((m, frame.copy()) for frame, m in zip(block, numbers) if m in kept)
        yield block


def _run_solve_linear(cfg: SolveConfig) -> RunResult:
    sym, grid, mp, phi, nl = _build_runtime(cfg)
    profile = None if cfg.forcing is None else sample_profile(grid, cfg.forcing.profile)
    core = _MultipointCore(sym, grid, mp, phi, cfg.time.nt, cfg.tolerances.eps_res)
    ghat = None
    if profile is not None:  # the envelope on the core's axis
        env, t = cfg.forcing.envelope, core.times
        with np.errstate(over="ignore", invalid="ignore"):  # SeparableForcing refuses an overflow
            g = np.ones(len(t)) if env.kind == "constant" else np.exp(-1j * env.omega * t)
        ghat = core.duhamel(SeparableForcing(profile, g))
    kept = dict.fromkeys([0, *core.lam_idx, *cfg.outputs.snapshot_frames])
    blocks = _keeping(core.solve(ghat), kept)
    obs = _observables(blocks, grid, core.dt, core.larr, nl, cfg.regularity)
    residual = _multipoint_defect(kept, mp, phi, cfg.time.nt)
    return _solve_result(cfg, grid, core.times, kept, obs, residual,
                         {"min_abs_denominator": core.min_abs})


def _run_solve_nls(cfg: SolveConfig) -> RunResult:
    sym, grid, mp, phi, nl = _build_runtime(cfg)  # parse refused a forcing
    traj, diags = solve_nls_multipoint(sym, grid, mp, phi, nl, s=cfg.regularity,
                                       nt=cfg.time.nt, tol_fp=cfg.tolerances.tol_fp,
                                       max_iter=cfg.tolerances.max_iter,
                                       eps_res=cfg.tolerances.eps_res)
    # the diagnostics named as summary keys: η, the iterations, the drifts, S⁰ value and min|D|
    summary = {f.name: getattr(diags, f.name) for f in fields(diags) if f.name in SUMMARY_KEYS}
    summary["strichartz_pairs"] = [p.label() for p in canonical_pairs(grid.n)]
    if diags.metric_clamped:
        summary["warnings"] = ["contraction metric exponent clamped to r=2 (formula left [2,inf))"]
    return _solve_result(cfg, grid, traj.times, traj.values, diags.observables,
                         multipoint_residual(traj, mp, phi), summary)


def _run_verify_dispersive(cfg: SolveConfig) -> RunResult:
    sym, grid, _, phi, _ = _build_runtime(cfg)
    disp = cfg.dispersive or DispersiveConfig()
    rep = verify_dispersive(sym, grid, phi, disp.times, disp.p)
    rows = zip(rep.times, rep.norms, rep.quotients, rep.boundary_fractions)
    csv = _csv("t,norm_p,quotient,boundary_mass_fraction", rows) + f"# slope {rep.slope!r}\n"
    warnings = []
    if rep.wraparound:
        warnings = ["wrap-around: more than 1% of mass in the outer 10% shell; "
                    "increase R for trustworthy decay rates"]
    return RunResult(csv, {"warnings": warnings})


def _run_verify_strichartz(cfg: SolveConfig) -> RunResult:
    sym, grid, _, _, _ = _build_runtime(cfg, datum=False)
    st = cfg.strichartz or StrichartzConfig()
    rep = verify_strichartz(sym, grid, t0=cfg.time.t0, T=cfg.time.T, nt=cfg.time.nt,
                            num_samples=st.num_samples, seed=st.seed, band=st.band)
    rows = zip(itertools.count(), rep.data_norms, rep.ratios)
    return RunResult(_csv("sample,data_l2,ratio", rows),
                     {"strichartz_pairs": rep.pair_labels, "strichartz_value": rep.max_ratio})


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


def _attach_signed_values(argv: list[str]) -> list[str]:
    """argv with `--s -1e-3` read as `--s=-1e-3` for the exponent options of classify and
    check-admissible: argparse takes a value that starts with '-' and is not a plain decimal,
    such as -1e-3 or -inf, for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--p", "--s", "--q", "--r") and arg.startswith("-"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


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
        args = _build_parser().parse_args(_attach_signed_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "classify":
            rep = critical_exponent(args.n, args.p, args.s)
            print(_finite_json({"n": args.n, "p": args.p, "s": args.s,
                                "s_c": rep.s_c, "class": rep.classification}))
            return 0
        if args.command == "check-admissible":
            q, r = _parse_exponent_arg(args.q), _parse_exponent_arg(args.r)
            print(_finite_json({"n": args.n, "q": args.q, "r": args.r,
                                "result": is_admissible(args.n, q, r)}))
            return 0
        cfg = _load_config(args.config, args.command)
        result = _RUNNERS[args.command](cfg)
        for path in write_report(result, cfg):
            print(path)
        return 0
    except (MpnlsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
