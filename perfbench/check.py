"""Output checks for one CLI run: the reports must match reference values.

Reports are never byte-compared: work that reorders floating-point sums (for
instance diagnostics computed by Plancherel in frequency space) legitimately
moves the last bits, and a faster fixed-point iteration lands on the fixed
point within tol_fp, not bit for bit.  So each checked number must lie within
a stated tolerance of its reference:

* solve runs: the reference values in reference/<workload>.json, recorded at
  the default seed.  Every seed is a translate of that problem by whole grid
  cells, so the same references hold for every seed.
* verify-strichartz: an independent NumPy model of the seeded samples, their
  free evolution and the four sharp-pair norms, computed from the config.

Iteration counts and d_history are recorded, not checked: an accelerated
iteration reaches the same fixed point in fewer steps.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

CSV_RTOL = 1e-7           # per column, relative to the column's largest |value|
JSON_RTOL = 1e-7          # eta, min_abs_denominator, strichartz_value
DRIFT_ATOL = 1e-8         # mass_drift and energy_drift are already relative
FINAL_RESIDUAL_MAX = 1e-9     # 10·tol_fp at the default tol_fp = 1e-10
MULTIPOINT_RESIDUAL_MAX = 1e-12
FIELD_RTOL = 1e-9         # L² norm of a field snapshot against the CSV's l2
MODEL_RTOL = 1e-9         # Strichartz reports against the NumPy model

SOLVE_COLUMNS = ("t", "mass", "energy", "l2", "linf", "sobolev_s")
JSON_RELATIVE = ("eta", "min_abs_denominator", "strichartz_value")
JSON_DRIFTS = ("mass_drift", "energy_drift")
JSON_EXACT = ("s_c", "class", "strichartz_pairs")
FIELD_HEADER_BYTES = 28


def read_csv(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return {col: [float(row[j]) for row in body] for j, col in enumerate(header)}


def reference_from_reports(report_base: Path) -> dict:
    """Reference record of a solve run, as stored under reference/."""
    summary = json.loads(report_base.with_suffix(".json").read_text(encoding="utf-8"))
    columns = read_csv(report_base.with_suffix(".csv"))
    keys = JSON_RELATIVE + JSON_DRIFTS + JSON_EXACT
    return {"json": {k: summary[k] for k in keys if summary.get(k) is not None},
            "csv": {c: columns[c] for c in SOLVE_COLUMNS}}


def _close(value, ref, rtol) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def check_solve(workload: str, cfg: dict, report_base: Path) -> list[str]:
    ref = json.loads((REFERENCE_DIR / f"{workload}.json").read_text(encoding="utf-8"))
    summary = json.loads(report_base.with_suffix(".json").read_text(encoding="utf-8"))
    columns = read_csv(report_base.with_suffix(".csv"))
    errors = []
    for key, want in ref["json"].items():
        got = summary.get(key)
        if key in JSON_EXACT:
            ok = got == want
        elif got is None:
            ok = False
        elif key in JSON_DRIFTS:
            ok = abs(got - want) <= DRIFT_ATOL
        else:
            ok = _close(got, want, JSON_RTOL)
        if not ok:
            errors.append(f"{key}: got {got!r}, reference {want!r}")
    if summary.get("final_residual") is not None and not summary["final_residual"] <= FINAL_RESIDUAL_MAX:
        errors.append(f"final_residual {summary['final_residual']!r} > {FINAL_RESIDUAL_MAX}")
    for col, want in ref["csv"].items():
        got = columns.get(col)
        if got is None or len(got) != len(want):
            errors.append(f"csv column {col}: missing or {len(got or [])} rows, want {len(want)}")
            continue
        tol = CSV_RTOL * max(abs(v) for v in want)
        worst = max(abs(a - b) for a, b in zip(got, want))
        if not worst <= tol:
            errors.append(f"csv column {col}: max deviation {worst:.3e} > {tol:.3e}")
    residuals = columns.get("multipoint_residual", [math.inf])
    if not max(residuals) <= MULTIPOINT_RESIDUAL_MAX:
        errors.append(f"multipoint_residual {max(residuals)!r} > {MULTIPOINT_RESIDUAL_MAX}")
    errors += _check_fields(cfg, columns)
    return errors


def _check_fields(cfg: dict, columns: dict) -> list[str]:
    """Snapshot files exist, have the documented size and carry the CSV's L² norm."""
    fields_path = cfg.get("outputs", {}).get("fields_path")
    if fields_path is None:
        return []
    g = cfg["grid"]
    h = (2.0 * g["R"] / g["N"]) ** g["n"]
    errors = []
    for m in cfg["outputs"]["snapshot_frames"]:
        path = Path(fields_path) / f"frame_{m:05d}.fld"
        try:
            raw = path.read_bytes()
        except OSError as exc:
            errors.append(f"field snapshot {path}: {exc}")
            continue
        if len(raw) != FIELD_HEADER_BYTES + 16 * g["N"] ** g["n"] or raw[:8] != b"MPNLSFLD":
            errors.append(f"field snapshot {path}: bad size or magic")
            continue
        vals = np.frombuffer(raw, dtype="<c16", offset=FIELD_HEADER_BYTES)
        l2 = math.sqrt(h * float(np.sum(np.abs(vals) ** 2)))
        if not _close(l2, columns["l2"][m], FIELD_RTOL):
            errors.append(f"field snapshot {path}: L2 {l2!r} != csv l2 {columns['l2'][m]!r}")
    return errors


# --- verify-strichartz ------------------------------------------------------------

# Sharp admissible pairs (q, r) in 2-D as listed in the report: (∞,2), (4,4), (6,3), (8,8/3).
PAIRS_2D = ((math.inf, 2.0), (4.0, 4.0), (6.0, 3.0), (8.0, 8.0 / 3.0))
PAIR_LABELS_2D = ["(inf,2)", "(4,4)", "(6,3)", "(8,8/3)"]


def strichartz_model(cfg: dict) -> tuple[list, list]:
    """(data L² norms, quotients) of the seeded band-limited samples.

    Sample k is φ(x) = Σ_j c_j e^{i(π/R)j·x} over |j|∞ ≤ band with c_j drawn
    as standard complex normals from default_rng(seed), in draw order.  Its
    free evolution multiplies c_j by e^{-itL(ξ_j)}; frames come from one
    inverse FFT per sample over all times.
    """
    g, tm, st = cfg["grid"], cfg["time"], cfg["strichartz"]
    if g["n"] != 2:
        raise ValueError("the Strichartz model covers 2-D workloads")
    n, N, R, band = g["n"], g["N"], g["R"], st["band"]
    a = np.asarray(cfg["symbol"]["a"], dtype=float)
    h = (2.0 * R / N) ** n
    j = np.arange(-band, band + 1)
    xi = (math.pi / R) * j
    lsym = a[0, 0] * xi[:, None] ** 2 + 2 * a[0, 1] * np.outer(xi, xi) + a[1, 1] * xi[None, :] ** 2
    sign = np.outer((-1.0) ** j, (-1.0) ** j)   # e^{iπj·x} at x = -R + 2Rm/N
    times = np.linspace(tm["t0"], tm["T"], tm["Nt"] + 1)
    weights = np.ones(times.size)
    weights[0] = weights[-1] = 0.5
    dt = (tm["T"] - tm["t0"]) / tm["Nt"]
    phases = np.exp(-1j * np.multiply.outer(times - tm["t0"], lsym))
    rng = np.random.default_rng(st["seed"])
    width = 2 * band + 1
    norms, ratios = [], []
    for _ in range(st["num_samples"]):
        c = rng.standard_normal((width, width)) + 1j * rng.standard_normal((width, width))
        spec = np.zeros((times.size, N, N), dtype=np.complex128)
        spec[:, j[:, None] % N, j[None, :] % N] = phases * (c * sign)
        frames = np.abs(np.fft.ifft2(spec) * (N * N))
        l2 = math.sqrt(h * float(np.sum(frames[0] ** 2)))
        best = 0.0
        for q, r in PAIRS_2D:
            per_frame = np.max(frames, axis=(1, 2)) if r == math.inf else \
                (h * np.sum(frames ** r, axis=(1, 2))) ** (1.0 / r)
            val = float(np.max(per_frame)) if q == math.inf else \
                float((dt * np.sum(weights * per_frame ** q)) ** (1.0 / q))
            best = max(best, val)
        norms.append(l2)
        ratios.append(best / l2)
    return norms, ratios


def check_strichartz(model: tuple[list, list], report_base: Path) -> list[str]:
    summary = json.loads(report_base.with_suffix(".json").read_text(encoding="utf-8"))
    columns = read_csv(report_base.with_suffix(".csv"))
    norms, ratios = model
    errors = []
    if summary.get("strichartz_pairs") != PAIR_LABELS_2D:
        errors.append(f"strichartz_pairs {summary.get('strichartz_pairs')!r} != {PAIR_LABELS_2D}")
    for col, want in (("data_l2", norms), ("ratio", ratios)):
        got = columns.get(col, [])
        if len(got) != len(want) or not all(_close(x, y, MODEL_RTOL) for x, y in zip(got, want)):
            errors.append(f"csv column {col} differs from the model beyond rtol {MODEL_RTOL}")
    value = summary.get("strichartz_value")
    if value is None or not _close(value, max(ratios), MODEL_RTOL):
        errors.append(f"strichartz_value {value!r} != model max {max(ratios)!r}")
    return errors
