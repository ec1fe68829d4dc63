"""Fresh-process harness that run.py spawns, one mode per process.

    python3 perfbench/child.py setup  <config>
    python3 perfbench/child.py spans  <command> <config> <out.json>
    python3 perfbench/child.py memory <command> <config> <out.json>

`setup` imports mpnls, parses the config and builds the symbol, grid,
multipoint spec, initial profile and forcing with the public functions; it
solves nothing.  `spans` runs the CLI command with every traced function
wrapped from outside the package (nothing under src/ changes) and writes the
recorded spans once, at exit.  `memory` runs the CLI command under
tracemalloc and writes the peak traced bytes.  The exit code is the CLI's.

Needs `src` on PYTHONPATH, as run.py arranges.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Functions traced, by home module: those one module calls in another plus
# the public entry points.  Methods are given as Class.method.  A name a later
# version of the package removes or renames is reported as absent.
TRACED = {
    "cli": ["run_command", "parse_config", "config_to_dict", "_build_runtime", "write_report",
            "_timeseries_csv", "_summary_json", "_run_solve_linear", "_run_solve_nls",
            "_run_verify_dispersive", "_run_verify_strichartz"],
    "grid": ["build_grid", "forward_transform", "inverse_transform", "sample_profile",
             "random_band_limited", "read_field_file", "write_field_file"],
    "linear": ["symbol_lattice", "apply_propagator", "multipoint_denominator", "_lambda_indices",
               "_spectral_frames", "_duhamel_spectral", "_check_forcing", "_resolve_datum_spectral",
               "duhamel", "solve_initial_data", "solve_linear_multipoint", "multipoint_residual",
               "boundary_mass_fraction", "verify_dispersive", "verify_strichartz"],
    "nonlinear": ["metric_exponent", "eval_nonlinearity", "_power_block", "lipschitz_check",
                  "smallness_indicator", "picard_step", "integral_residual", "solve_nls_multipoint",
                  "_relative_drift", "_PicardContext.apply", "_PicardContext.step"],
    "norms": ["lebesgue_norm", "mixed_norm", "sobolev_norm", "apply_riesz", "is_admissible",
              "make_pair", "canonical_pairs", "strichartz_norm", "critical_exponent", "mass",
              "energy"],
    "symbol": ["validate_symbol", "eval_symbol", "propagator_multiplier"],
}


class Tracer:
    """Wraps functions in every mpnls namespace that binds them; spans stay in memory.

    A span is (name index, start, end, parent span index or -1).
    """

    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, func, name_idx: int):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_idx, start, end, parent)

        return traced

    def _rebind(self, original, wrapper):
        """Replace every binding of `original` in mpnls modules, module-level dicts included."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "mpnls" or modname.startswith("mpnls.")):
                continue
            namespace = vars(mod)
            for attr, val in list(namespace.items()):
                if val is original:
                    namespace[attr] = wrapper
                    self._undo.append((namespace, attr, original))
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if item is original:
                            val[key] = wrapper
                            self._undo.append((val, key, original))

    def install(self):
        for home, names in TRACED.items():
            mod = importlib.import_module(f"mpnls.{home}")
            for name in names:
                label = f"{home}.{name}"
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                original = None if owner is None else vars(owner).get(attr)
                if not callable(original):
                    self.absent.append(label)
                    continue
                self.names.append(label)
                wrapper = self._wrap(original, len(self.names) - 1)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    self._undo.append((owner, attr, original))
                else:
                    self._rebind(original, wrapper)

    def restore(self):
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "absent": self.absent,
                       "spans": self.spans}, fh)


def _setup(config_path: str) -> int:
    import numpy as np

    import mpnls
    from mpnls.cli import parse_config

    with open(config_path, encoding="utf-8") as fh:
        text = fh.read()
    parse_config(text)
    raw = json.loads(text)
    mpnls.validate_symbol(raw["symbol"]["a"])
    g = raw["grid"]
    grid = mpnls.build_grid(g["n"], g["N"], g["R"])
    t = raw["time"]
    mpnls.MultipointSpec(t["t0"], t["T"], tuple((complex(p["alpha_re"], p["alpha_im"]), p["lambda"])
                                                for p in raw.get("multipoint", [])))
    mpnls.sample_profile(grid, raw["initial"])
    forcing = raw.get("forcing")
    if forcing is not None:
        base = mpnls.sample_profile(grid, forcing["profile"])
        times = np.linspace(t["t0"], t["T"], t["Nt"] + 1)
        env = forcing["envelope"]
        if env["kind"] == "harmonic":
            envelope = np.exp(-1j * env["omega"] * times)
        else:
            envelope = np.ones_like(times, dtype=np.complex128)
        vals = envelope[(...,) + (None,) * grid.n] * base.values[None, ...]
        mpnls.Trajectory(grid, t["t0"], t["T"], vals)
    return 0


def _spans(command: str, config_path: str, out_path: str) -> int:
    from mpnls import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.run_command([command, "--config", config_path])
    finally:
        tracer.restore()
        tracer.dump(out_path)
    return code


def _memory(command: str, config_path: str, out_path: str) -> int:
    import tracemalloc

    from mpnls import cli

    tracemalloc.start()
    try:
        code = cli.run_command([command, "--config", config_path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"peak_bytes": peak}, fh)
    return code


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return _setup(*rest)
    if mode == "spans":
        return _spans(*rest)
    if mode == "memory":
        return _memory(*rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
