"""Every workload in turn, one table: the benchmark's one-command summary.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Runs perfbench/run.py once per
workload, one after another (never two at once), and prints each metric by
name and unit with one column per workload.  With --trace 0 (the default)
the table holds the end-to-end metrics plus failed_frac, the share of
attempted runs that exited non-zero or failed the output check; with
--trace 1 it holds the per-layer metrics.  Exits 1 if any output check
failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: benchmark exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 2
        for line in lines[:-1]:
            if line.startswith("check failed"):
                print(f"{name}: {line}", file=sys.stderr)
        results[name] = json.loads(lines[-1])

    rows = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(f"{'metric':26s} {'unit':6s}" + "".join(f"{n:>18s}" for n in names))
    for metric, unit in rows:
        print(f"{metric:26s} {unit:6s}"
              + "".join(f"{results[n]['metrics'][metric]['value']:>18.6g}" for n in names))
    print(f"{'failed_frac':26s} {'1':6s}"
          + "".join(f"{results[n]['failed'] / results[n]['attempted']:>18.6g}" for n in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
