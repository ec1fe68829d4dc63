"""Compare the benchmark workloads' full-size reports of this checkout with those of another tree.

    python tests/compare_workload_reports.py PARENT_TREE

PARENT_TREE is the root of another source checkout, say a `git archive` copy of the parent
commit.  For each of the four workloads the seed-0 config is built with
`perfbench/workloads.make_config`, imported and left as it is, and both trees' CLIs run it
in turn, each in a fresh process with its own src/ on PYTHONPATH and one BLAS/OpenMP thread,
writing to the same paths in one scratch directory, so that the reports' config echoes match.
Every file a run writes is compared byte for byte.  Prints one line per workload, and exits
1 on a failed run or any file that differs or is missing on one side, 0 when all match.
pytest does not collect it: it runs the CLI at full size, a few seconds per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, make_config  # noqa: E402

CLI = "import sys; from mpnls.cli import run_command; sys.exit(run_command(sys.argv[1:]))"
ONE_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def reports(tree: Path, name: str, work: Path) -> dict[str, bytes]:
    """{path under the output directory: bytes} of every file that `tree`'s CLI writes for the
    workload's seed-0 config; a run that exits non-zero raises SystemExit with its output."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    config = work / "config.json"
    config.write_text(json.dumps(make_config(name, 0, str(out / "report"), str(out / "fields")),
                                 indent=2), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **ONE_THREAD)
    run = subprocess.run([sys.executable, "-c", CLI, WORKLOADS[name]["command"], "--config",
                          str(config)], cwd=work, env=env, capture_output=True, text=True)
    if run.returncode != 0:
        raise SystemExit(f"{name}: {tree} exited {run.returncode}\n{run.stdout}{run.stderr}")
    return {str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def differences(ours: dict[str, bytes], theirs: dict[str, bytes]) -> list[str]:
    """The files that differ, or that one side lacks, each with what is wrong."""
    found = [f"{path}: only in {'this tree' if path in ours else 'the other tree'}"
             for path in sorted(set(ours) ^ set(theirs))]
    return found + [f"{path}: bytes differ" for path in sorted(set(ours) & set(theirs))
                    if ours[path] != theirs[path]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the other source checkout")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "mpnls" / "cli.py").is_file():
        parser.error(f"{parent} is not an mpnls source checkout (no src/mpnls/cli.py)")
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(WORKLOADS):
            ours, theirs = (reports(tree, name, Path(scratch)) for tree in (ROOT, parent))
            found = differences(ours, theirs)
            failed = failed or bool(found)
            print(f"{name}: {len(ours)} files, " + ("; ".join(found) if found else "identical"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
