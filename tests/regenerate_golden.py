"""Regenerate the golden report files under tests/golden/: of the shipped configs, and of
the small cases below, which take the paths that no shipped config takes.

Each configs/<name>.json, or small case, runs through `run_command` in an empty working
directory, so its relative report paths (and so its `config_echo`) are those of its config,
and every file the run writes is stored under tests/golden/<name>/ at the same relative path.
tests/golden/fingerprint.json records the numpy build and CPU that wrote them: where the
fingerprint matches, `test_shipped_configs_run_end_to_end` and
`test_small_cases_run_end_to_end` compare the bytes.

Run it from the root of a checkout whose reports are to become the reference:

    PYTHONPATH=src python tests/regenerate_golden.py

A change that moves report bits reruns it and says which files and columns moved.
"""

import json
import os
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np

from mpnls.cli import run_command

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SHIPPED_COMMANDS = {"dispersive_check": "verify-dispersive", "linear_multipoint": "solve-linear",
                    "nls_small_data": "solve-nls", "strichartz_check": "verify-strichartz"}
SMALL_CASES = {  # name: (command, config)
    "forced_harmonic_2d": ("solve-linear", {  # t0 != 0, a term at lambda = T, a frame twice
        "symbol": {"a": [[1.0, 0.3], [0.3, 0.5]]},
        "grid": {"n": 2, "N": 32, "R": 4.0},
        "time": {"t0": 0.25, "T": 1.25, "Nt": 40},
        "multipoint": [{"alpha_re": 0.4, "alpha_im": -0.1, "lambda": 1.25},
                       {"alpha_re": 0.2, "lambda": 0.75}],
        "initial": {"kind": "gaussian", "amplitude": [1.0, 0.5], "width": 0.8,
                    "center": [0.3, -0.2]},
        "forcing": {"profile": {"kind": "gaussian", "amplitude": 0.7, "width": 0.6,
                                "center": [-0.5, 0.4]},
                    "envelope": {"kind": "harmonic", "omega": 3.0}},
        "nonlinearity": {"lambda": 1.0, "p": 2.0},
        "outputs": {"report_path": "out/forced_harmonic_2d", "fields_path": "out/fields",
                    "snapshot_frames": [0, 20, 20, 40]}}),
    "forced_plane_wave_1d": ("solve-linear", {
        "symbol": {"a": [[1.0]]},
        "grid": {"n": 1, "N": 64, "R": 3.141592653589793},
        "time": {"t0": 0.0, "T": 1.0, "Nt": 50},
        "multipoint": [{"alpha_re": 0.3, "alpha_im": 0.2, "lambda": 0.5}],
        "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 0.5, "center": [0.0]},
        "forcing": {"profile": {"kind": "plane_wave", "amplitude": 0.4, "mode": [3]}},
        "outputs": {"report_path": "out/forced_plane_wave_1d"}}),
    "nls_1d_regular": ("solve-nls", {  # s = 0.5
        "symbol": {"a": [[1.0]]},
        "grid": {"n": 1, "N": 64, "R": 8.0},
        "time": {"t0": 0.0, "T": 1.0, "Nt": 50},
        "multipoint": [{"alpha_re": 0.3, "lambda": 0.5}],
        "initial": {"kind": "gaussian", "amplitude": 0.2, "width": 1.0, "center": [0.5]},
        "nonlinearity": {"lambda": -1.0, "p": 2.0},
        "regularity": 0.5,
        "outputs": {"report_path": "out/nls_1d_regular"}}),
    "nls_1d_late_gate": ("solve-nls", {  # the mixing gate opens at k = 10, the history at 11
        "symbol": {"a": [[1.0]]},
        "grid": {"n": 1, "N": 64, "R": 10.0},
        "time": {"t0": 0.0, "T": 1.0, "Nt": 50},
        "multipoint": [{"alpha_im": 0.3, "lambda": 0.5}],
        "initial": {"kind": "gaussian", "amplitude": 0.95, "width": 1.0, "center": [0.0]},
        "nonlinearity": {"lambda": -1.0, "p": 2.0},
        "outputs": {"report_path": "out/nls_1d_late_gate"}}),
    "nls_3d": ("solve-nls", {
        "symbol": {"a": [[1.0, 0.0, 0.0], [0.0, 0.8, 0.0], [0.0, 0.0, 1.2]]},
        "grid": {"n": 3, "N": 16, "R": 4.0},
        "time": {"t0": 0.0, "T": 0.5, "Nt": 20},
        "multipoint": [{"alpha_re": 0.25, "lambda": 0.5}],
        "initial": {"kind": "gaussian", "amplitude": 0.2, "width": 0.8,
                    "center": [0.0, 0.0, 0.0]},
        "nonlinearity": {"lambda": -1.0, "p": 2.0},
        "outputs": {"report_path": "out/nls_3d"}}),
    "dispersive_p4": ("verify-dispersive", {
        "symbol": {"a": [[1.0]]},
        "grid": {"n": 1, "N": 2048, "R": 100.0},
        "time": {"t0": 0.0, "T": 1.0, "Nt": 1},
        "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0, "center": [0.0]},
        "dispersive": {"times": [1.0, 2.0, 4.0, 8.0], "p": 4.0},
        "outputs": {"report_path": "out/dispersive_p4"}}),
}


def fingerprint() -> dict:
    """What decides a report's last bits besides the code: the numpy version, the machine
    and the SIMD targets that numpy's dispatch enables on this CPU."""
    from numpy._core._multiarray_umath import (__cpu_baseline__, __cpu_dispatch__,
                                               __cpu_features__)
    enabled = [f for f in (*__cpu_baseline__, *__cpu_dispatch__) if __cpu_features__.get(f)]
    return {"numpy": np.__version__, "machine": platform.machine(), "cpu_features": enabled}


def run_shipped(name: str) -> int:
    """Run configs/<name>.json in the current directory; returns the exit code."""
    return run_command([SHIPPED_COMMANDS[name], "--config", str(ROOT / "configs" / f"{name}.json")])


def run_small(name: str) -> int:
    """Run the small case `name` in the current directory, from a config file kept outside
    it; returns the exit code."""
    command, doc = SMALL_CASES[name]
    with tempfile.TemporaryDirectory() as where:
        path = Path(where) / f"{name}.json"
        path.write_text(json.dumps(doc))
        return run_command([command, "--config", str(path)])


def main() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir(parents=True)
    home = os.getcwd()
    runs = [(name, run_shipped) for name in SHIPPED_COMMANDS]
    for name, run in sorted(runs + [(name, run_small) for name in SMALL_CASES]):
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                if run(name) != 0:
                    raise SystemExit(f"{name}: the run failed")
            finally:
                os.chdir(home)
            shutil.copytree(work, GOLDEN / name)
    (GOLDEN / "fingerprint.json").write_text(json.dumps(fingerprint(), indent=2) + "\n")


if __name__ == "__main__":
    main()
