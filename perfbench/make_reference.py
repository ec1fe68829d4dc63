"""Record the reference values the output check compares solve runs against.

    python3 perfbench/make_reference.py

Run from the root of a source checkout.  Runs each solve workload once
through the CLI at the default seed and writes reference/<workload>.json.
Re-record only when a change to the program is meant to change its results,
and say so with the change.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import check
from run import CLI_MAIN
from workloads import DEFAULT_SEED, WORKLOADS, make_config


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench_work" / "reference"
    for name, spec in WORKLOADS.items():
        if spec["command"] == "verify-strichartz":
            continue  # checked against the model in check.py instead
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        report = work / "report"
        cfg = make_config(name, DEFAULT_SEED, str(report))
        config_path = work / "config.json"
        config_path.write_text(json.dumps(cfg), encoding="utf-8")
        subprocess.run([sys.executable, "-c", CLI_MAIN, str(work / "peak_rss_kb"), spec["command"],
                        "--config", str(config_path)],
                       cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")), check=True,
                       stdout=subprocess.DEVNULL)
        out = check.REFERENCE_DIR / f"{name}.json"
        ref = check.reference_from_reports(report)
        lines = [f'  "{col}": {json.dumps(vals)}' for col, vals in ref["csv"].items()]
        out.write_text('{"json": ' + json.dumps(ref["json"]) + ',\n "csv": {\n'
                       + ",\n".join(lines) + "\n}}\n", encoding="utf-8")
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
