"""Property: a config that parse_config accepts runs.

Configs are drawn from the schema, every section of it, with small grids and
tiny amplitudes; some draws break a value rule (an off-grid or out-of-range λ,
a regularity above the nonlinear bound, a nonpositive width or dispersive time,
a negative Strichartz seed, a snapshot frame outside [0, Nt]), which parse must
reject.  A config
is parsed once for each of the four config commands; each one whose parse
accepts it runs to an exit code other than 2, and an accepted config survives
the round trip through its config echo, json.dumps(config_to_dict(cfg)), unchanged.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest

from mpnls import ConfigError
from mpnls.cli import EXIT_CODES, config_to_dict, parse_config, run_command

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

GRID_POINTS = {1: [8, 16, 32], 2: [8, 16]}
SMALL = st.floats(-0.05, 0.05)


@st.composite
def profiles(draw, n, N, R):
    amplitude = draw(st.one_of(SMALL, st.lists(SMALL, min_size=2, max_size=2)))
    if draw(st.booleans()):
        return {"kind": "gaussian", "amplitude": amplitude,
                "width": draw(st.floats(-0.5, 3.0).filter(lambda w: abs(w) > 0.1)),
                "center": draw(st.lists(st.floats(-R, R), min_size=n, max_size=n))}
    return {"kind": "plane_wave", "amplitude": amplitude,
            "mode": draw(st.lists(st.integers(-N // 2, N // 2), min_size=n, max_size=n))}


@st.composite
def configs(draw):
    n = draw(st.sampled_from([1, 2]))
    N = draw(st.sampled_from(GRID_POINTS[n]))
    R = draw(st.floats(1.0, 8.0))
    b = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)))
    a = b.reshape(n, n) @ b.reshape(n, n).T + draw(st.floats(0.1, 2.0)) * np.eye(n)
    t0 = draw(st.floats(-1.0, 1.0))
    T = t0 + draw(st.floats(0.25, 2.0))
    nt = draw(st.integers(1, 20))
    grid_times = np.linspace(t0, T, nt + 1)
    lams = draw(st.lists(st.integers(1, nt).map(lambda k: float(grid_times[k])),
                         max_size=3, unique=True))
    extra = draw(st.one_of(st.none(), st.floats(t0, T + 0.1, exclude_min=True)))
    if extra is not None and extra not in lams:  # mostly off the grid, sometimes past T
        lams.append(extra)
    doc = {
        "symbol": {"a": a.tolist()},
        "grid": {"n": n, "N": N, "R": R},
        "time": {"t0": t0, "T": T, "Nt": nt},
        "multipoint": [{"alpha_re": draw(st.floats(-0.45, 0.45)),
                        "alpha_im": draw(st.floats(-0.45, 0.45)), "lambda": lam} for lam in lams],
        "initial": draw(profiles(n, N, R)),
        "regularity": draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5, 2.0])),
        "tolerances": {"tol_fp": 1e-8, "max_iter": draw(st.integers(1, 20))},
    }
    p = draw(st.sampled_from([None, 1.0, 2.0, 3.0, 4.0]))
    if p is not None:
        doc["nonlinearity"] = {"lambda": draw(st.floats(-1.0, 1.0)), "p": p}
    if draw(st.integers(0, 3)) == 3:
        doc["forcing"] = {"profile": draw(profiles(n, N, R)),
                          "envelope": draw(st.sampled_from([{"kind": "constant"},
                                                            {"kind": "harmonic", "omega": 2.0}]))}
    if draw(st.integers(0, 3)) > 0:
        doc["strichartz"] = {"num_samples": draw(st.integers(1, 2)),
                             "seed": draw(st.integers(-1, 3)), "band": draw(st.integers(1, 3))}
    if draw(st.integers(0, 3)) > 0:
        times = st.lists(st.floats(0.0, 4.0), min_size=1, max_size=3, unique=True).map(sorted)
        doc["dispersive"] = {"times": draw(times), "p": draw(st.sampled_from([2, 4, "inf"]))}
    if draw(st.integers(0, 3)) > 0:
        doc["outputs"] = {"snapshot_frames": draw(st.lists(st.integers(0, nt + 1), max_size=3))}
    return doc


def _run(command: str, config_path: str):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_command([command, "--config", config_path])
    return code, err.getvalue()


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
@hypothesis.given(configs())
def test_parsed_config_runs(doc):
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "r")
        doc["outputs"] = dict(doc.get("outputs", {}), report_path=report,
                              fields_path=os.path.join(tmp, "fields"))
        config_path = os.path.join(tmp, "cfg.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in ("solve-linear", "solve-nls", "verify-dispersive", "verify-strichartz"):
            try:
                parse_config(json.dumps(doc), command)
            except ConfigError:
                continue
            code, err = _run(command, config_path)
            assert code in (0, 3, 4, 5), f"{command} exit {code}: {err}"
            written = os.path.exists(report + ".csv") and os.path.exists(report + ".json")
            assert written == (code == 0), f"{command} exit {code} with reports {written}"
            for suffix in (".csv", ".json"):
                if os.path.exists(report + suffix):
                    os.remove(report + suffix)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(configs())
def test_serialize_parse_roundtrip(doc):
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigError:
        return
    assert parse_config(json.dumps(config_to_dict(cfg))) == cfg


def test_exit_codes_follow_the_documented_table():
    # documented in the README: 3 resonance, 4 no convergence, 5 non-finite,
    # 2 any other package error, 1 I/O failure; the first matching class wins
    import mpnls

    assert [(cls.__name__, code) for cls, code in EXIT_CODES] == [
        ("ResonanceError", 3), ("NoConvergenceError", 4), ("NonFiniteError", 5),
        ("MpnlsError", 2), ("OSError", 1)]
    for cls in (mpnls.ResonanceError, mpnls.NoConvergenceError, mpnls.NonFiniteError):
        assert issubclass(cls, mpnls.MpnlsError)


@st.composite
def failing_configs(draw):
    """(command, config, exit code) for a small 1-D config built to fail one documented way:
    3 for α = 1, which makes D(0) = 0; 4 for one Picard step of cubic focusing at
    amplitude 1.0; 5 for a nonlinearity that overflows on 1e200 data, or a forcing
    whose transform overflows."""
    N = draw(st.sampled_from([16, 32]))
    nt = 2 * draw(st.integers(1, 8))
    doc = {
        "symbol": {"a": [[draw(st.floats(0.5, 2.0))]]},
        "grid": {"n": 1, "N": N, "R": draw(st.floats(4.0, 10.0))},
        "time": {"t0": 0.0, "T": 1.0, "Nt": nt},
        "multipoint": [{"alpha_re": draw(st.floats(-0.3, 0.3)), "lambda": 0.5}],
        "initial": {"kind": "gaussian", "amplitude": 1.0,
                    "width": draw(st.floats(0.5, 1.5))},
        "nonlinearity": {"lambda": -1.0, "p": 2.0},
    }
    way = draw(st.sampled_from(["resonance", "no_convergence", "blowup", "forcing_overflow"]))
    if way == "resonance":
        doc["multipoint"] = [{"alpha_re": 1.0, "lambda": draw(st.integers(1, nt)) / nt}]
        return draw(st.sampled_from(["solve-linear", "solve-nls"])), doc, 3
    if way == "no_convergence":
        doc["tolerances"] = {"max_iter": 1}
        return "solve-nls", doc, 4
    if way == "blowup":
        doc["initial"]["amplitude"] = 1e200
        return "solve-nls", doc, 5
    doc["forcing"] = {"profile": {"kind": "gaussian", "amplitude": draw(st.floats(1e308, 1.7e308))},
                      "envelope": draw(st.sampled_from([{"kind": "constant"},
                                                        {"kind": "harmonic", "omega": 2.0}]))}
    return "solve-linear", doc, 5


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(failing_configs())
def test_failures_exit_with_their_documented_code(case):
    # each way of failing reaches its code through run_command, with one error line,
    # no numpy warning (the suite makes one an error) and no report written
    command, doc, expected = case
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "r")
        doc["outputs"] = {"report_path": report}
        config_path = os.path.join(tmp, "cfg.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, err = _run(command, config_path)
        assert code == expected, f"{command} exit {code}: {err}"
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert not os.path.exists(report + ".csv") and not os.path.exists(report + ".json")
