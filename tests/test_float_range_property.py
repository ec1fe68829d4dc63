"""Property: over the whole float range, a config either fails to parse or runs quietly.

`test_config_property.py` draws moderate values; this draws the box half-width R, the base
time t0, the span T − t0, the symbol's scale, the amplitude, the width, the centres and the
two dispersive times log-uniformly over about 1e-320..1e308, with the dispersive p in
{2, 4, ∞}, on small grids (N ≤ 16, Nt ≤ 12, zero or one multipoint term on the time grid).
Each config is parsed for each of the four config commands.  Parse refuses it with a
ConfigError, or `run_command` returns 0, 1, 3, 4 or 5 with no exception: a number that
leaves the double range is refused where it is made, so no RuntimeWarning leaks (the suite's
`filterwarnings = error` turns one into a failure).
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from mpnls import ConfigError
from mpnls.cli import parse_config, run_command

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

COMMANDS = ("solve-linear", "solve-nls", "verify-dispersive", "verify-strichartz")
GRID_POINTS = {1: [4, 8, 16], 2: [4, 8], 3: [4]}
SHAPES = {1: [[1.0]], 2: [[1.0, 0.3], [0.3, 0.5]], 3: [[1.0, 0.0, 0.2], [0.0, 0.8, 0.0],
                                                      [0.2, 0.0, 1.2]]}
MAGNITUDES = st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e)  # log-uniform, subnormals too
SIGNED = st.tuples(st.sampled_from([-1.0, 1.0]), MAGNITUDES).map(lambda sm: sm[0] * sm[1])


@st.composite
def float_range_configs(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    N = draw(st.sampled_from(GRID_POINTS[n]))
    scale = draw(MAGNITUDES)
    t0 = draw(st.one_of(st.just(0.0), SIGNED))
    T = t0 + draw(MAGNITUDES)
    nt = draw(st.integers(1, 12))
    terms = []
    if draw(st.booleans()):  # a λ at a grid time, as linspace places it: t0 + k·Δt, or T
        k = draw(st.integers(1, nt))
        lam = T if k == nt else t0 + k * ((T - t0) / nt)
        terms = [{"alpha_re": draw(st.floats(-0.45, 0.45)), "alpha_im": 0.1, "lambda": lam}]
    amplitude = draw(st.one_of(MAGNITUDES, st.lists(SIGNED, min_size=2, max_size=2)))
    return {
        "symbol": {"a": [[scale * v for v in row] for row in SHAPES[n]]},
        "grid": {"n": n, "N": N, "R": draw(MAGNITUDES)},
        "time": {"t0": t0, "T": T, "Nt": nt},
        "multipoint": terms,
        "initial": {"kind": "gaussian", "amplitude": amplitude, "width": draw(MAGNITUDES),
                    "center": draw(st.lists(SIGNED, min_size=n, max_size=n))},
        "nonlinearity": {"lambda": draw(st.sampled_from([-1.0, 1.0])), "p": 2.0},
        "tolerances": {"max_iter": 4},
        "dispersive": {"times": sorted(draw(st.lists(MAGNITUDES, min_size=2, max_size=2))),
                       "p": draw(st.sampled_from([2.0, 4.0, "inf"]))},
        "strichartz": {"num_samples": 1, "band": 1},
    }


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(float_range_configs())
def test_a_config_over_the_float_range_parses_and_runs_quietly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        doc["outputs"] = {"report_path": os.path.join(tmp, "r")}
        config_path = os.path.join(tmp, "cfg.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in COMMANDS:
            try:
                parse_config(json.dumps(doc), command)
            except ConfigError:
                continue
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run_command([command, "--config", config_path])
            assert code in (0, 1, 3, 4, 5), f"{command} exit {code}: {err.getvalue()}"
