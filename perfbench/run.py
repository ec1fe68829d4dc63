"""Benchmark entry point: one workload through the real mpnls CLI, fresh processes only.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; the package is imported from
./src and nothing needs building.  Every child process runs alone (never two
at once) with OMP/OpenBLAS/MKL pinned to one thread.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median wall time of fresh processes that import mpnls, parse
               the config and build the runtime objects (no solve);
  wall_s       median spawn-to-exit time of `mpnls <command> --config <cfg>`,
               reports written, over the CLI runs made in --seconds seconds;
  peak_rss_mb  median peak resident set size of those CLI processes.
Both timings are in reference seconds: each child's wall time is scaled by a
fixed yardstick kernel timed right before and right after it (yardstick.py),
so a stretch in which the whole machine runs slower does not read as a
slower program.  The unscaled medians are printed as well.
--trace 1 measures the per-layer metrics (see layers.py): traced CLI runs
alternate with untraced ones for --seconds seconds, then one separate
tracemalloc run gives the peak traced memory.

Every CLI run's reports go through the output check (check.py).  The last
line printed is one JSON object: correct, attempted, failed (runs that exited
non-zero or failed the check) and the metrics.  The lines before it record
the run environment, the iteration count, sample counts and any check
failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import check  # noqa: E402  (NumPy is imported only after the thread pins)
import layers  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_config, trajectory_bytes  # noqa: E402
from yardstick import NOMINAL_S, Yardstick  # noqa: E402

HERE = Path(__file__).resolve().parent
CHILD = str(HERE / "child.py")
# The CLI entry point, as the `mpnls` console script runs it, preceded by a
# hook that writes the process's own peak RSS (VmHWM, kB) to the file named
# by the first argument at exit.  The parent's ru_maxrss for a child is not
# used: on Linux it also counts the parent's memory at spawn time.
CLI_MAIN = """import atexit, sys
rss_out = sys.argv.pop(1)
def _peak_rss():
    with open('/proc/self/status') as fh:
        kb = next(line.split()[1] for line in fh if line.startswith('VmHWM'))
    with open(rss_out, 'w') as fh:
        fh.write(kb)
atexit.register(_peak_rss)
from mpnls.cli import main
sys.argv[0] = 'mpnls'
main()
"""
RUN_BUDGET_S = 170.0      # every run ends well inside the 180 s limit
SETUP_REPS = 9            # fewest measured set-up processes per run, after one warm-up
MIN_CLI_RUNS = 3
MB = 2.0**20

# Hand-countable tracer check: 1-D solve-linear with no multipoint terms and
# no forcing issues 1 + 2·(Nt+1) forward and 3·(Nt+1) inverse transforms.
SELFTEST_NT = 10
SELFTEST_CONFIG = {
    "symbol": {"a": [[1.0]]},
    "grid": {"n": 1, "N": 16, "R": 3.141592653589793},
    "time": {"t0": 0.0, "T": 1.0, "Nt": SELFTEST_NT},
    "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 0.5, "center": [0.0]},
}
SELFTEST_COUNTS = {"grid.fwd_calls": 1 + 2 * (SELFTEST_NT + 1),
                   "grid.inv_calls": 3 * (SELFTEST_NT + 1)}


class Runner:
    """Spawns the child processes of one benchmark run, one at a time."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, argv: list[str], log_name: str) -> tuple[float, int]:
        """(spawn-to-exit seconds, exit code) of one child."""
        with open(self.work / log_name, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                proc.wait()
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        return wall, proc.returncode

    def record(self, what: str, code: int, errors: list[str]):
        self.attempted += 1
        if code != 0:
            errors = [f"exit code {code}"] + errors
        if errors:
            self.failures.append(f"{what}: " + "; ".join(errors))

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline


class Workload:
    """One workload's generated config and the check of its reports."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.command = WORKLOADS[name]["command"]
        self.report = work / "out" / "report"
        self.cfg = make_config(name, seed, str(self.report), str(work / "out" / "fields"))
        self.config_path = work / "config.json"
        self.rss_path = work / "peak_rss_kb"
        self.config_path.write_text(json.dumps(self.cfg, indent=2), encoding="utf-8")
        self.model = check.strichartz_model(self.cfg) if self.command == "verify-strichartz" else None

    def cli_argv(self) -> list[str]:
        return [sys.executable, "-c", CLI_MAIN, str(self.rss_path), self.command,
                "--config", str(self.config_path)]

    def peak_rss_mb(self) -> float:
        try:
            return int(self.rss_path.read_text(encoding="utf-8")) * 1024 / MB
        except (OSError, ValueError):
            return 0.0

    def clear_outputs(self):
        shutil.rmtree(self.report.parent, ignore_errors=True)
        self.rss_path.unlink(missing_ok=True)

    def check(self, code: int) -> list[str]:
        if code != 0:
            return []
        try:
            if self.model is not None:
                return check.check_strichartz(self.model, self.report)
            return check.check_solve(self.name, self.cfg, self.report)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"reports unreadable: {exc!r}"]

    def iterations(self) -> int:
        try:
            summary = json.loads(self.report.with_suffix(".json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return 0
        return len(summary.get("d_history") or [])


def end_to_end(runner: Runner, wl: Workload, seconds: float) -> tuple[dict, dict]:
    """Set-up processes alternate with CLI runs, so both sample the same stretch of time.

    Each child's wall time is scaled by the yardstick timed just before and
    just after it (see yardstick.py).
    """
    yard = Yardstick()
    before = yard.measure()
    raw = {"wall_s": [], "setup_s": []}
    scaled = {"wall_s": [], "setup_s": []}
    yards = [before]

    def timed(metric: str, argv: list[str], log_name: str) -> int:
        nonlocal before
        wall, code = runner.spawn(argv, log_name)
        after = yard.measure()
        raw[metric].append(wall)
        scaled[metric].append(wall * 2.0 * NOMINAL_S / (before + after))
        yards.append(after)
        before = after
        return code

    setup_argv = [sys.executable, CHILD, "setup", str(wl.config_path)]

    def set_up():
        code = timed("setup_s", setup_argv, "setup.log")
        runner.record(f"setup {len(raw['setup_s'])}", code, [])

    set_up()
    for series in (raw, scaled):  # the first set-up fills bytecode and file caches
        series["setup_s"].clear()
    rss = []
    iterations = 0
    start = time.perf_counter()
    while (len(rss) < MIN_CLI_RUNS or time.perf_counter() - start < seconds) \
            and not runner.out_of_time():
        set_up()
        wl.clear_outputs()
        code = timed("wall_s", wl.cli_argv(), "cli.log")
        runner.record(f"cli run {len(rss)}", code, wl.check(code))
        rss.append(wl.peak_rss_mb())
        iterations = wl.iterations()
    while len(raw["setup_s"]) < SETUP_REPS and not runner.out_of_time():
        set_up()
    metrics = {name: statistics.median(values) for name, values in scaled.items()}
    metrics["peak_rss_mb"] = statistics.median(rss)
    info = {"iterations": iterations,
            "samples": {name: len(values) for name, values in raw.items()},
            "unscaled_median_s": {name: statistics.median(values) for name, values in raw.items()},
            "yardstick_median_s": statistics.median(yards)}
    return metrics, info


def selftest(runner: Runner):
    cfg = dict(SELFTEST_CONFIG, outputs={"report_path": str(runner.work / "selftest" / "report")})
    path = runner.work / "selftest.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    spans_path = runner.work / "selftest.spans.json"
    _, code = runner.spawn([sys.executable, CHILD, "spans", "solve-linear", str(path),
                               str(spans_path)], "selftest.log")
    errors = []
    if code == 0:
        got, _ = layers.layer_metrics(json.loads(spans_path.read_text(encoding="utf-8")), 16 * 16, 0)
        errors = [f"{k} = {got[k]}, expected {v}" for k, v in SELFTEST_COUNTS.items() if got[k] != v]
    runner.record("tracer self-test", code, errors)


def per_layer(runner: Runner, wl: Workload, seconds: float) -> tuple[dict, dict]:
    """Per-layer values are unscaled medians over the traced runs."""
    selftest(runner)
    grid = wl.cfg["grid"]
    frame_bytes = grid["N"] ** grid["n"] * 16
    spans_path = runner.work / "spans.json"
    plain, traced, samples = [], [], []
    absent: list[str] = []
    iterations = 0
    start = time.perf_counter()
    while (not traced or time.perf_counter() - start < seconds) and not runner.out_of_time():
        wl.clear_outputs()
        wall, code = runner.spawn(wl.cli_argv(), "cli.log")
        runner.record(f"untraced run {len(plain)}", code, wl.check(code))
        plain.append(wall)
        wl.clear_outputs()
        wall, code = runner.spawn([sys.executable, CHILD, "spans", wl.command,
                                      str(wl.config_path), str(spans_path)], "spans.log")
        runner.record(f"traced run {len(traced)}", code, wl.check(code))
        traced.append(wall)
        iterations = wl.iterations()
        if code == 0:
            values, absent = layers.layer_metrics(json.loads(spans_path.read_text(encoding="utf-8")),
                                                  frame_bytes, iterations)
            samples.append(values)
    wl.clear_outputs()
    mem_path = runner.work / "memory.json"
    _, code = runner.spawn([sys.executable, CHILD, "memory", wl.command, str(wl.config_path),
                               str(mem_path)], "memory.log")
    runner.record("tracemalloc run", code, wl.check(code))
    peak = json.loads(mem_path.read_text(encoding="utf-8"))["peak_bytes"] if code == 0 else 0
    names = samples[0] if samples else list(layers.SIMPLE) + list(layers.DERIVED)
    metrics = {name: statistics.median(s[name] for s in samples) if samples else 0 for name in names}
    metrics["run.peak_traced_mb"] = peak / MB
    metrics["run.peak_traj_arrays"] = peak / trajectory_bytes(wl.cfg)
    metrics["run.trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, {"iterations": iterations, "traced_runs": len(traced), "absent": absent}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            **versions, "cpu": cpu, "threads": {var: os.environ[var] for var in THREAD_VARS}}


def declared_metrics(root: Path, trace: int) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mpnls" / "cli.py").is_file():
        print(f"error: {root} is not an mpnls source checkout (no src/mpnls/cli.py)", file=sys.stderr)
        return 2
    units = declared_metrics(root, args.trace)
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    runner = Runner(root, work)
    wl = Workload(args.workload, args.seed, work)
    measure = per_layer if args.trace else end_to_end
    values, info = measure(runner, wl, args.seconds)
    if set(values) != set(units):
        print(f"error: measured metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 2

    failed = len(runner.failures)
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "failed_frac": failed / runner.attempted, **info}))
    for line in runner.failures:
        print(f"check failed: {line}")
    for name in units:
        print(f"{name:28s} {values[name]:>16.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
