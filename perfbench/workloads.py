"""The benchmark's workloads and their seeded input generation.

Each workload is one CLI command plus the config it reads.  The seed moves
every Gaussian centre by the same vector of at most one grid cell per axis
(the problem is translation invariant, so every seed has the same reference
norms and the same amount of work) and offsets the Strichartz sampling seed.
Seed 0 is the default and produces the base configs below unchanged.
"""

from __future__ import annotations

import copy
import math

DEFAULT_SEED = 0
STRICHARTZ_BASE_SEED = 11

SYMBOL_2D = [[1.0, 0.2], [0.2, 1.5]]
TIME_UNIT = {"t0": 0.0, "T": 1.0, "Nt": 200}
ONE_POINT = [{"alpha_re": 0.3, "alpha_im": 0.0, "lambda": 0.5}]
CUBIC_FOCUSING = {"lambda": -1.0, "p": 2.0}

WORKLOADS = {
    # Converges in 3 Picard iterations on large frames; post-convergence
    # diagnostics and the CSV are about half the run, peak memory is ~6
    # trajectory arrays.  Plancherel diagnostics and copy removal show here.
    "nls2d_small": {
        "command": "solve-nls",
        "config": {
            "symbol": {"a": SYMBOL_2D},
            "grid": {"n": 2, "N": 128, "R": 10.0},
            "time": TIME_UNIT,
            "multipoint": ONE_POINT,
            "initial": {"kind": "gaussian", "amplitude": 0.05, "width": 1.0, "center": [0.0, 0.0]},
            "nonlinearity": CUBIC_FOCUSING,
            "regularity": 0.0,
        },
    },
    # 49 iterations at contraction ratio ~0.88 on small frames, where per-call
    # overhead dominates.  Picard acceleration shows here.
    "nls1d_focusing": {
        "command": "solve-nls",
        "config": {
            "symbol": {"a": [[1.0]]},
            "grid": {"n": 1, "N": 256, "R": 10.0},
            "time": TIME_UNIT,
            "multipoint": ONE_POINT,
            "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0, "center": [0.0]},
            "nonlinearity": CUBIC_FOCUSING,
            "regularity": 0.0,
            "tolerances": {"max_iter": 100},
        },
    },
    # Free propagation only: no Duhamel, no Picard, no per-frame forward
    # transforms, 10,440 lebesgue_norm calls over 4 exponent pairs.
    "strichartz2d": {
        "command": "verify-strichartz",
        "config": {
            "symbol": {"a": SYMBOL_2D},
            "grid": {"n": 2, "N": 64, "R": math.pi},
            "time": {"t0": 0.0, "T": 1.0, "Nt": 64},
            "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 0.5, "center": [0.0, 0.0]},
            "strichartz": {"num_samples": 40, "seed": STRICHARTZ_BASE_SEED, "band": 8},
        },
    },
    # The only run of solve_linear_multipoint, of a Duhamel pass over external
    # forcing, of forcing construction in the CLI and of field-file output.
    "linear2d_forced": {
        "command": "solve-linear",
        "config": {
            "symbol": {"a": SYMBOL_2D},
            "grid": {"n": 2, "N": 128, "R": 10.0},
            "time": TIME_UNIT,
            "multipoint": [
                {"alpha_re": 0.5, "alpha_im": 0.0, "lambda": 0.4},
                {"alpha_re": 0.2, "alpha_im": 0.1, "lambda": 0.8},
            ],
            "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0, "center": [0.0, 0.0]},
            "forcing": {
                "profile": {"kind": "gaussian", "amplitude": 0.1, "width": 1.0, "center": [0.0, 0.0]},
                "envelope": {"kind": "harmonic", "omega": 3.0},
            },
            "outputs": {"snapshot_frames": [0, 100, 200]},
        },
    },
}


def center_shift(seed: int, n: int) -> list[int]:
    """Per-axis shift in grid cells: base-3 digits of the seed mapped 0→0, 1→+1, 2→−1."""
    return [(0, 1, -1)[(seed // 3**k) % 3] for k in range(n)]


def make_config(name: str, seed: int, report_path: str, fields_path: str | None = None) -> dict:
    """The config handed to the CLI for one workload and seed."""
    cfg = copy.deepcopy(WORKLOADS[name]["config"])
    grid = cfg["grid"]
    step = 2.0 * grid["R"] / grid["N"]
    shift = [k * step for k in center_shift(seed, grid["n"])]
    profiles = [cfg["initial"]]
    if "forcing" in cfg:
        profiles.append(cfg["forcing"]["profile"])
    for prof in profiles:
        prof["center"] = [c + d for c, d in zip(prof["center"], shift)]
    if "strichartz" in cfg:
        cfg["strichartz"]["seed"] = STRICHARTZ_BASE_SEED + seed
    outputs = cfg.setdefault("outputs", {})
    outputs["report_path"] = report_path
    if fields_path is not None and "snapshot_frames" in outputs:
        outputs["fields_path"] = fields_path
    return cfg


def trajectory_bytes(cfg: dict) -> int:
    """Bytes of one complex128 trajectory array, (Nt+1)·Nⁿ·16."""
    grid = cfg["grid"]
    return (cfg["time"]["Nt"] + 1) * grid["N"] ** grid["n"] * 16
