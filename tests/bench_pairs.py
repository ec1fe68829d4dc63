"""Time this checkout against another tree in alternating pairs of benchmark runs.

    python tests/bench_pairs.py PARENT_TREE --workload W [--pairs N] [--seconds S]

PARENT_TREE is the root of another source checkout, say a `git archive` copy of the parent
commit.  Both trees are copied, without caches or benchmark scratch, to two fresh directories
whose paths have the same length: a run's faults and peak RSS depend on the length of its
checkout's path, so copies at paths of unequal length do not compare.  Each pair runs
`perfbench/run.py --workload W --trace 0 --seconds S` once in each copy, the parent first in
even pairs and the change first in odd ones.  Prints every pair's `wall_s`, `setup_s` and
`peak_rss_mb`, then for each metric both sides' medians, the parent's quartile spread
(Q3 − Q1) and the number of pairs the change wins (reads lower).  Exits 1 when a run fails or
reads "correct": false.  It writes nothing under either tree.  pytest does not collect it:
each run takes S seconds or more.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".perfbench_work", ".hypothesis",
                              ".pytest_cache", ".benchmarks")


def bench(tree: Path, workload: str, seconds: float) -> dict[str, float]:
    """{metric: value} of one `--trace 0` run in `tree`; a failed or incorrect run raises
    SystemExit with its output."""
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--trace", "0", "--seconds", str(seconds)],
                         cwd=tree, capture_output=True, text=True)
    last = json.loads(run.stdout.splitlines()[-1]) if run.returncode == 0 else {}
    if not last.get("correct"):
        raise SystemExit(f"{tree}: run failed (exit {run.returncode})\n{run.stdout}{run.stderr}")
    return {name: last["metrics"][name]["value"] for name in METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the other source checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        parser.error(f"{parent} is not an mpnls source checkout (no perfbench/run.py)")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as scratch:
        trees = {"parent": Path(scratch) / "tree0", "change": Path(scratch) / "tree1"}
        for side, source in (("parent", parent), ("change", ROOT)):
            shutil.copytree(source, trees[side], ignore=SKIP)
        print("pair first " + "".join(f"  {side + ' ' + name:>18s}" for name in METRICS
                                      for side in runs))
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(bench(trees[side], args.workload, args.seconds))
            print(f"{pair:4d} {order[0]:6s}" + "".join(f"  {runs[side][-1][name]:18.4f}"
                                                         for name in METRICS for side in runs))
    for name in METRICS:
        before, after = ([run[name] for run in runs[side]] for side in runs)
        quartiles = statistics.quantiles(before, n=4) if len(before) > 1 else [before[0]] * 3
        wins = sum(a < b for a, b in zip(after, before))
        print(f"{name}: parent median {statistics.median(before):.4f}, change median "
              f"{statistics.median(after):.4f}, parent Q3-Q1 {quartiles[2] - quartiles[0]:.4f}, "
              f"change wins {wins} of {len(after)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
