import json
import math
import sys

import numpy as np
import pytest

from mpnls import ConfigSyntaxError, UnknownKeyError, ValidationError, read_field_file
from mpnls.cli import config_to_dict, parse_config, run_command, serialize_config

MINIMAL = {
    "symbol": {"a": [[1.0]]},
    "grid": {"n": 1, "N": 64, "R": math.pi},
    "time": {"t0": 0.0, "T": 1.0, "Nt": 50},
    "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 0.5, "center": [0.0]},
}


def make_config(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# --- parsing ----------------------------------------------------------------------


def test_parse_minimal_defaults():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.tolerances.eps_res == 1e-8
    assert cfg.tolerances.tol_fp == 1e-10
    assert cfg.tolerances.max_iter == 50
    assert cfg.multipoint == ()
    assert cfg.forcing is None and cfg.nonlinearity is None
    assert cfg.regularity == 0.0
    assert cfg.outputs.report_path == "report"
    assert cfg.outputs.snapshot_frames == (0, 50)


def test_parse_rejects_unknown_key():
    doc = make_config(multipoint=[{"alpa": 0.5, "lambda": 0.5}])
    with pytest.raises(UnknownKeyError) as err:
        parse_config(json.dumps(doc))
    assert "alpa" in str(err.value)


def test_parse_lambda_range_message():
    doc = make_config(multipoint=[{"alpha_re": 0.5, "alpha_im": 0.0, "lambda": 2.0}])
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps(doc))
    assert "lambda out of (t0,T]" in str(err.value)


def test_parse_syntax_error():
    with pytest.raises(ConfigSyntaxError):
        parse_config("{not json")
    with pytest.raises(ConfigSyntaxError):
        parse_config("[1, 2]")


def test_parse_named_precondition_failures():
    with pytest.raises(ValidationError, match="symbol"):
        parse_config(json.dumps(make_config(symbol={"a": [[1.0, 0.5], [0.2, 1.0]]})))
    with pytest.raises(ValidationError, match="grid"):
        parse_config(json.dumps(make_config(grid={"n": 1, "N": 7, "R": 1.0})))
    with pytest.raises(ValidationError, match="regularity"):
        parse_config(json.dumps(make_config(regularity=3.0)))
    with pytest.raises(ValidationError, match="regularity"):  # the nonlinear solve needs s <= 1
        parse_config(json.dumps(make_config(nonlinearity={"lambda": -1.0, "p": 2.0},
                                            regularity=1.5)))
    with pytest.raises(ValidationError, match="mode"):
        parse_config(json.dumps(make_config(
            initial={"kind": "plane_wave", "amplitude": 1.0, "mode": [0.5]})))
    with pytest.raises(ValidationError, match="nonlinearity.p"):
        parse_config(json.dumps(make_config(nonlinearity={"lambda": 1.0, "p": -1.0})))
    with pytest.raises(ValidationError, match="T="):
        parse_config(json.dumps(make_config(time={"t0": 1.0, "T": 1.0, "Nt": 5})))
    with pytest.raises(ValidationError, match="distinct"):
        parse_config(json.dumps(make_config(multipoint=[
            {"alpha_re": 0.1, "alpha_im": 0.0, "lambda": 0.5},
            {"alpha_re": 0.2, "alpha_im": 0.0, "lambda": 0.5}])))


def test_parse_regularity_bound_without_nonlinearity():
    assert parse_config(json.dumps(make_config(regularity=1.5))).regularity == 1.5


def test_parse_serialize_roundtrip():
    doc = make_config(
        multipoint=[{"alpha_re": 0.3, "alpha_im": -0.1, "lambda": 0.5}],
        nonlinearity={"lambda": -1.0, "p": 2.0},
        regularity=0.5,
        forcing={"profile": {"kind": "plane_wave", "amplitude": [0.1, 0.2], "mode": [1]},
                 "envelope": {"kind": "harmonic", "omega": 2.0}},
        dispersive={"times": [2.0, 4.0, 8.0], "p": "inf"},
        strichartz={"num_samples": 5, "seed": 3, "band": 6},
        outputs={"report_path": "out/r", "fields_path": "out/f", "snapshot_frames": [0, 25]},
    )
    cfg1 = parse_config(json.dumps(doc))
    cfg2 = parse_config(serialize_config(cfg1))
    assert cfg1 == cfg2
    assert config_to_dict(cfg1) == config_to_dict(cfg2)
    assert cfg1.dispersive.p == math.inf


# --- command dispatch ---------------------------------------------------------------


def test_solve_linear_writes_reports(tmp_path, capsys):
    doc = make_config(outputs={"report_path": str(tmp_path / "run"),
                               "fields_path": str(tmp_path / "fields")})
    code = run_command(["solve-linear", "--config", write_config(tmp_path, doc)])
    assert code == 0
    csv_lines = (tmp_path / "run.csv").read_text().splitlines()
    assert csv_lines[0] == "t,mass,energy,l2,linf,sobolev_s,multipoint_residual"
    assert len(csv_lines) == 52  # header + Nt+1 rows
    summary = json.loads((tmp_path / "run.json").read_text())
    assert summary["version"]
    assert summary["min_abs_denominator"] == 1.0
    assert summary["iterations"] is None
    snap = read_field_file(tmp_path / "fields" / "frame_00000.fld")
    assert snap.grid.N == 64


def test_reports_are_byte_identical(tmp_path):
    doc = make_config(
        multipoint=[{"alpha_re": 0.3, "alpha_im": 0.0, "lambda": 0.5}],
        outputs={"report_path": str(tmp_path / "a")})
    cfg_path = write_config(tmp_path, doc)
    assert run_command(["solve-linear", "--config", cfg_path]) == 0
    first = ((tmp_path / "a.csv").read_bytes(), (tmp_path / "a.json").read_bytes())
    assert run_command(["solve-linear", "--config", cfg_path]) == 0
    second = ((tmp_path / "a.csv").read_bytes(), (tmp_path / "a.json").read_bytes())
    assert first == second


def test_resonant_config_exits_3(tmp_path, capsys):
    doc = make_config(
        grid={"n": 1, "N": 16, "R": math.pi},
        time={"t0": 0.0, "T": 2 * math.pi, "Nt": 16},
        multipoint=[{"alpha_re": 1.0, "alpha_im": 0.0, "lambda": 2 * math.pi}],
        outputs={"report_path": str(tmp_path / "res")})
    code = run_command(["solve-linear", "--config", write_config(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 3
    assert "min |D(xi)|" in err and "eps_res" in err
    assert not (tmp_path / "res.csv").exists()
    assert not (tmp_path / "res.json").exists()


def test_nls_run_summary(tmp_path):
    doc = make_config(
        grid={"n": 1, "N": 128, "R": 10.0},
        initial={"kind": "gaussian", "amplitude": 0.05, "width": 1.0, "center": [0.0]},
        multipoint=[{"alpha_re": 0.3, "alpha_im": 0.0, "lambda": 0.5}],
        nonlinearity={"lambda": -1.0, "p": 2.0},
        time={"t0": 0.0, "T": 1.0, "Nt": 100},
        outputs={"report_path": str(tmp_path / "nls")})
    assert run_command(["solve-nls", "--config", write_config(tmp_path, doc)]) == 0
    summary = json.loads((tmp_path / "nls.json").read_text())
    assert summary["iterations"] >= 1
    assert summary["eta"] > 0
    assert summary["final_residual"] < 1e-8
    assert summary["s_c"] == pytest.approx(-0.5)
    assert summary["class"] == "subcritical"
    assert len(summary["d_history"]) == summary["iterations"]
    assert all(r < 1 for r in summary["contraction_ratios"])
    assert summary["mass_drift"] < 1e-6
    assert summary["energy_drift"] < 1e-4
    assert summary["strichartz_value"] > 0
    assert any("clamped" in w for w in summary["warnings"])


def _small_nls_doc(tmp_path, nt):
    return make_config(
        grid={"n": 1, "N": 64, "R": 10.0},
        initial={"kind": "gaussian", "amplitude": 0.05, "width": 1.0, "center": [0.0]},
        multipoint=[{"alpha_re": 0.3, "alpha_im": 0.0, "lambda": 0.5}],
        nonlinearity={"lambda": -1.0, "p": 2.0},
        regularity=0.5,
        time={"t0": 0.0, "T": 1.0, "Nt": nt},
        outputs={"report_path": str(tmp_path / "nls")})


def test_nls_observables_computed_once(tmp_path, monkeypatch):
    from mpnls import norms

    calls = {"energy": 0, "sobolev_norm": 0}
    for name in calls:
        original = getattr(norms, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "mpnls" and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    nt = 20
    doc = _small_nls_doc(tmp_path, nt)
    assert run_command(["solve-nls", "--config", write_config(tmp_path, doc)]) == 0
    assert calls == {"energy": nt + 1, "sobolev_norm": nt + 1}


def test_nls_drifts_match_csv_columns(tmp_path):
    doc = _small_nls_doc(tmp_path, 40)
    assert run_command(["solve-nls", "--config", write_config(tmp_path, doc)]) == 0
    summary = json.loads((tmp_path / "nls.json").read_text())
    header, *rows = (tmp_path / "nls.csv").read_text().splitlines()
    columns = dict(zip(header.split(","), zip(*(map(float, r.split(",")) for r in rows))))

    def drift(values):
        ref = values[0]
        return max(abs(v - ref) for v in values) / max(abs(ref), float(np.finfo(np.float64).eps))

    assert summary["mass_drift"] == drift(columns["mass"])
    assert summary["energy_drift"] == drift(columns["energy"])
    assert summary["mass_drift"] > 0.0 and summary["energy_drift"] > 0.0


def test_nls_requires_nonlinearity(tmp_path, capsys):
    code = run_command(["solve-nls", "--config",
                        write_config(tmp_path, make_config())])
    assert code == 2
    assert "nonlinearity" in capsys.readouterr().err


def test_nls_max_iter_exceeded_exits_4(tmp_path, capsys):
    doc = make_config(
        grid={"n": 1, "N": 64, "R": 10.0},
        initial={"kind": "gaussian", "amplitude": 0.3, "width": 1.0, "center": [0.0]},
        nonlinearity={"lambda": -1.0, "p": 2.0},
        tolerances={"tol_fp": 1e-15, "max_iter": 1},
        outputs={"report_path": str(tmp_path / "x")})
    code = run_command(["solve-nls", "--config", write_config(tmp_path, doc)])
    assert code == 4
    assert "did not reach" in capsys.readouterr().err


def test_nls_blowup_exits_5(tmp_path, capsys):
    doc = make_config(
        grid={"n": 1, "N": 64, "R": 10.0},
        initial={"kind": "gaussian", "amplitude": 1000.0, "width": 1.0, "center": [0.0]},
        nonlinearity={"lambda": -1.0, "p": 2.0},
        outputs={"report_path": str(tmp_path / "x")})
    code = run_command(["solve-nls", "--config", write_config(tmp_path, doc)])
    assert code == 5
    assert not (tmp_path / "x.csv").exists()


def test_verify_dispersive_report_format(tmp_path):
    doc = make_config(
        grid={"n": 1, "N": 1024, "R": 60.0},
        initial={"kind": "gaussian", "amplitude": 1.0, "width": 1.0, "center": [0.0]},
        dispersive={"times": [2.0, 4.0, 8.0], "p": "inf"},
        outputs={"report_path": str(tmp_path / "disp")})
    assert run_command(["verify-dispersive", "--config", write_config(tmp_path, doc)]) == 0
    lines = (tmp_path / "disp.csv").read_text().splitlines()
    assert lines[0] == "t,norm_p,quotient,boundary_mass_fraction"
    assert len(lines) == 5  # header + 3 time rows + slope line
    assert lines[-1].startswith("# slope ")
    slope = float(lines[-1].split()[-1])
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_verify_dispersive_wraparound_warning(tmp_path):
    doc = make_config(
        initial={"kind": "plane_wave", "amplitude": 1.0, "mode": [1]},
        dispersive={"times": [1.0, 2.0], "p": "inf"},
        outputs={"report_path": str(tmp_path / "wrap")})
    assert run_command(["verify-dispersive", "--config", write_config(tmp_path, doc)]) == 0
    summary = json.loads((tmp_path / "wrap.json").read_text())
    assert any("wrap-around" in w for w in summary["warnings"])


def test_verify_strichartz_report(tmp_path):
    doc = make_config(
        time={"t0": 0.0, "T": 1.0, "Nt": 16},
        strichartz={"num_samples": 4, "seed": 1, "band": 6},
        outputs={"report_path": str(tmp_path / "st")})
    assert run_command(["verify-strichartz", "--config", write_config(tmp_path, doc)]) == 0
    summary = json.loads((tmp_path / "st.json").read_text())
    assert summary["strichartz_pairs"] == ["(inf,2)", "(4,inf)", "(6,6)", "(8,4)"]
    assert summary["strichartz_value"] >= 1.0 - 1e-12
    lines = (tmp_path / "st.csv").read_text().splitlines()
    assert lines[0] == "sample,data_l2,ratio"
    assert len(lines) == 5


def test_classify_stdout(capsys):
    assert run_command(["classify", "--n", "3", "--p", "4", "--s", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"] == "critical"
    assert out["s_c"] == 1.0


def test_check_admissible_stdout(capsys):
    assert run_command(["check-admissible", "--n", "2", "--q", "2", "--r", "inf"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "rejected"
    assert run_command(["check-admissible", "--n", "2", "--q", "8", "--r", "8/3"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "sharp"


def test_missing_config_exits_2(tmp_path, capsys):
    assert run_command(["solve-linear", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_from_file_initial_profile(tmp_path):
    import mpnls

    g = mpnls.build_grid(1, 64, math.pi)
    seed_field = mpnls.sample_profile(g, {"kind": "gaussian", "amplitude": 1.0,
                                          "width": 0.5, "center": [0.0]})
    field_path = tmp_path / "phi.fld"
    mpnls.write_field_file(seed_field, field_path)
    doc = make_config(initial={"kind": "from_file", "path": str(field_path)},
                      outputs={"report_path": str(tmp_path / "ff")})
    assert run_command(["solve-linear", "--config", write_config(tmp_path, doc)]) == 0


def test_forcing_run(tmp_path):
    doc = make_config(
        forcing={"profile": {"kind": "gaussian", "amplitude": 0.1, "width": 1.0,
                             "center": [0.0]},
                 "envelope": {"kind": "harmonic", "omega": 3.0}},
        outputs={"report_path": str(tmp_path / "forced")})
    assert run_command(["solve-linear", "--config", write_config(tmp_path, doc)]) == 0
    summary = json.loads((tmp_path / "forced.json").read_text())
    assert summary["min_abs_denominator"] == 1.0
