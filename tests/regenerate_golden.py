"""Regenerate the golden report files of the shipped configs under tests/golden/.

Each configs/<name>.json runs through `run_command` in an empty working directory, so its
relative report paths (and so its `config_echo`) are those of the shipped file, and every
file the run writes is stored under tests/golden/<name>/ at the same relative path.
tests/golden/fingerprint.json records the numpy build and CPU that wrote them: where the
fingerprint matches, `test_shipped_configs_run_end_to_end` compares the bytes.

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


def main() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir(parents=True)
    home = os.getcwd()
    for name in sorted(SHIPPED_COMMANDS):
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                if run_shipped(name) != 0:
                    raise SystemExit(f"{name}: the run failed")
            finally:
                os.chdir(home)
            shutil.copytree(work, GOLDEN / name)
    (GOLDEN / "fingerprint.json").write_text(json.dumps(fingerprint(), indent=2) + "\n")


if __name__ == "__main__":
    main()
