import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mpnls
from mpnls import (ConfigSyntaxError, NonFiniteError, UnknownKeyError, ValidationError,
                   read_field_file)
from mpnls.cli import RunResult, _summary_json, config_to_dict, parse_config, run_command
from regenerate_golden import GOLDEN, SMALL_CASES, fingerprint, run_shipped, run_small

ROOT = Path(__file__).resolve().parents[1]

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


def test_parse_rejects_numbers_beyond_float_range():
    # JSON integers are unbounded: one past the float range, or too long to convert at all
    with pytest.raises(ValidationError, match=r"^grid\.R must be finite"):
        parse_config(json.dumps(make_config(grid={"n": 1, "N": 64, "R": 10**400})))
    with pytest.raises(ValidationError, match=r"^grid: points per axis .* < 2\*\*32"):
        parse_config(json.dumps(make_config(grid={"n": 1, "N": 10**400, "R": 1.0})))
    with pytest.raises(ConfigSyntaxError, match="not valid JSON"):
        parse_config(json.dumps(MINIMAL)[:-1] + ', "regularity": ' + "1" * 5000 + "}")


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
    # PowerNonlinearity's own rule, run as the section is read
    with pytest.raises(ValidationError, match="^nonlinearity: power p must be positive, got -1.0$"):
        parse_config(json.dumps(make_config(nonlinearity={"lambda": 1.0, "p": -1.0})))
    with pytest.raises(ValidationError, match="T="):
        parse_config(json.dumps(make_config(time={"t0": 1.0, "T": 1.0, "Nt": 5})))
    with pytest.raises(ValidationError, match="distinct"):
        parse_config(json.dumps(make_config(multipoint=[
            {"alpha_re": 0.1, "alpha_im": 0.0, "lambda": 0.5},
            {"alpha_re": 0.2, "alpha_im": 0.0, "lambda": 0.5}])))


def test_parse_checks_nt_on_the_time_axis():
    # grid.time_step owns nt >= 1; parse names the section
    with pytest.raises(ValidationError, match="time: number of time intervals nt must be >= 1, got 0"):
        parse_config(json.dumps(make_config(time={"t0": 0.0, "T": 1.0, "Nt": 0})))


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
    cfg2 = parse_config(json.dumps(config_to_dict(cfg1)))
    assert cfg1 == cfg2
    assert config_to_dict(cfg1) == config_to_dict(cfg2)
    assert cfg1.dispersive.p == math.inf


def test_canonical_echo():
    doc = make_config(multipoint=[{"lambda": 0.5}], dispersive={"p": "inf", "times": [2.0, 4.0]})
    assert json.loads(json.dumps(config_to_dict(parse_config(json.dumps(doc))))) == {
        "symbol": {"a": [[1.0]]},
        "grid": {"n": 1, "N": 64, "R": math.pi},
        "time": {"t0": 0.0, "T": 1.0, "Nt": 50},
        "multipoint": [{"alpha_re": 0.0, "alpha_im": 0.0, "lambda": 0.5}],
        "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 0.5, "center": [0.0]},
        "forcing": None,
        "nonlinearity": None,
        "regularity": 0.0,
        "tolerances": {"eps_res": 1e-8, "tol_fp": 1e-10, "max_iter": 50},
        "outputs": {"report_path": "report", "fields_path": None, "snapshot_frames": [0, 50]},
        "dispersive": {"times": [2.0, 4.0], "p": "inf"},
    }  # an absent strichartz section stays absent


@pytest.mark.parametrize("section,value,key", [
    ("grid", {"n": 1, "R": 1.0}, "grid.N"),
    ("time", {"t0": 0.0, "T": 1.0}, "time.Nt"),
    ("multipoint", [{"alpha_re": 0.1}], "multipoint[0].lambda"),
    ("nonlinearity", {"lambda": -1.0}, "nonlinearity.p"),
])
def test_parse_names_a_missing_required_key(section, value, key):
    with pytest.raises(ValidationError, match=re.escape(f"missing required key '{key}'")):
        parse_config(json.dumps(make_config(**{section: value})))


def _schema_examples():
    """The shipped configs and the README's jsonc schema example, comments stripped."""
    docs = {path.name: path.read_text() for path in sorted((ROOT / "configs").glob("*.json"))}
    readme = (ROOT / "README.md").read_text()
    example = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    docs["README.md"] = re.sub(r"//[^\n]*", "", example)
    return docs


@pytest.mark.parametrize("name", sorted(_schema_examples()))
def test_documented_configs_parse_and_round_trip(name):
    cfg = parse_config(_schema_examples()[name])
    assert parse_config(json.dumps(config_to_dict(cfg))) == cfg


def _close(a: float, b: float) -> bool:
    """Equal to 1e-12 relative, or to 1e-12 absolute where roundoff sets a small value's bits."""
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def _cell_differences(where: str, old: str, new: str) -> list[str]:
    try:
        same = _close(float(old), float(new))
    except ValueError:
        same = old == new
    return [] if same else [f"{where}: {old} != {new}"]


def _json_differences(where: str, old, new) -> list[str]:
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [d for key in old for d in _json_differences(f"{where}.{key}", old[key], new[key])]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [d for i, pair in enumerate(zip(old, new))
                for d in _json_differences(f"{where}[{i}]", *pair)]
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        return [] if _close(old, new) else [f"{where}: {old!r} != {new!r}"]
    return [] if old == new else [f"{where}: {old!r} != {new!r}"]


def _field_differences(rel: Path, old: Path, new: Path) -> list[str]:
    """The fields of one report file that differ beyond `_close`, each named: a CSV cell by
    its line and column, a JSON number by its key path, a .fld sample by its index."""
    if rel.suffix == ".json":
        docs = json.loads(old.read_text()), json.loads(new.read_text())
        for doc in docs:  # a ratio d_{k+1}/d_k of distances near roundoff keeps few of its bits:
            if doc.get("contraction_ratios"):  # it is compared as the distance ratio·d_k
                doc["contraction_ratios"] = [r * d for r, d in zip(doc["contraction_ratios"],
                                                                   doc["d_history"])]
        return _json_differences(rel.name, *docs)
    if rel.suffix == ".fld":
        a, b = mpnls.read_field_file(old), mpnls.read_field_file(new)
        if a.grid != b.grid:
            return [f"{rel.name}: grid {b.grid!r} != {a.grid!r}"]
        bad = np.argwhere(~np.isclose(b.values, a.values, rtol=1e-12, atol=1e-12))
        return [f"{rel.name}: {len(bad)} samples differ, the first at {tuple(bad[0].tolist())}"
                ] if len(bad) else []
    lines_old, lines_new = old.read_text().splitlines(), new.read_text().splitlines()
    if len(lines_old) != len(lines_new):
        return [f"{rel.name}: {len(lines_new)} lines != {len(lines_old)}"]
    header = lines_old[0].split(",")
    diffs = []
    for k, (a, b) in enumerate(zip(lines_old, lines_new)):
        sep = None if a.startswith("#") else ","  # a comment line: `# slope <value>`
        cells_a, cells_b = a.split(sep), b.split(sep)
        if len(cells_a) != len(cells_b):
            diffs.append(f"{rel.name} line {k + 1}: {b!r} != {a!r}")
            continue
        names = header if sep else [f"word {j + 1}" for j in range(len(cells_a))]
        diffs += [d for name, x, y in zip(names, cells_a, cells_b)
                  for d in _cell_differences(f"{rel.name} line {k + 1} {name}", x, y)]
    return diffs


def _report_differences(golden: Path, run: Path) -> list[str]:
    """How the files a run wrote under `run` differ from those under `golden`: by bytes when
    the stored fingerprint is this machine's (each differing file named, with any field that
    `_field_differences` finds), else only by `_field_differences`."""
    files = sorted(p.relative_to(golden) for p in golden.rglob("*") if p.is_file())
    wrote = sorted(p.relative_to(run) for p in run.rglob("*") if p.is_file())
    if wrote != files:
        return [f"files {[str(p) for p in wrote]} != {[str(p) for p in files]}"]
    bitwise = json.loads((GOLDEN / "fingerprint.json").read_text()) == fingerprint()
    diffs = []
    for rel in files:
        if bitwise and (golden / rel).read_bytes() != (run / rel).read_bytes():
            diffs.append(f"{rel}: bytes differ")
        diffs += _field_differences(rel, golden / rel, run / rel)
    return diffs


@pytest.mark.parametrize("name", sorted(path.stem for path in (ROOT / "configs").glob("*.json")))
def test_shipped_configs_run_end_to_end(tmp_path, monkeypatch, name):
    # a shipped config runs as shipped, from tmp_path, and writes the files of its golden
    # report (tests/regenerate_golden.py): its CSV, its JSON and any snapshots, with the
    # golden bytes where the fingerprint matches
    monkeypatch.chdir(tmp_path)
    assert run_shipped(name) == 0
    assert _report_differences(GOLDEN / name, tmp_path) == []


@pytest.mark.parametrize("name", sorted(SMALL_CASES))
def test_small_cases_run_end_to_end(tmp_path, monkeypatch, name):
    # the paths that no shipped config takes (a forcing, t0 != 0, a term at lambda = T,
    # a snapshot frame named twice, s > 0, 3-D, a finite dispersive p) keep their golden bytes
    monkeypatch.chdir(tmp_path)
    assert run_small(name) == 0
    assert _report_differences(GOLDEN / name, tmp_path) == []


WRONG_SHAPES = [(section, bad) for section in ("symbol", "grid", "time", "initial", "forcing",
                                               "nonlinearity", "tolerances", "outputs",
                                               "dispersive", "strichartz")
                for bad in (5, "ab", [1])]
WRONG_SHAPES += [("multipoint", {"lambda": 0.5}), ("multipoint", 5), ("multipoint", "ab"),
                 ("multipoint[0]", [5])]


@pytest.mark.parametrize("section,bad", WRONG_SHAPES,
                         ids=[f"{section}-{type(bad).__name__}" for section, bad in WRONG_SHAPES])
def test_wrong_shaped_section_exits_2(tmp_path, capsys, section, bad):
    doc = make_config(outputs={"report_path": str(tmp_path / "bad")})
    doc[section.removesuffix("[0]")] = bad
    assert run_command(["solve-linear", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {section} must be ")
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("kind", [["gaussian"], {"kind": "gaussian"}], ids=["list", "dict"])
def test_wrong_shaped_profile_kind_exits_2(tmp_path, capsys, kind):
    bad = {"kind": kind, "amplitude": 0.1}
    for path, doc in (("initial", make_config(initial=bad)),
                      ("forcing.profile", make_config(forcing={"profile": bad}))):
        assert run_command(["solve-linear", "--config", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}.kind must be one of ")


GAUSSIAN = MINIMAL["initial"]
WRONG_VALUES = [  # (config section, its value, the start of the message)
    ("initial", dict(GAUSSIAN, center={"a": 1}), "initial.center must be a list of 1 numbers"),
    ("initial", dict(GAUSSIAN, center="ab"), "initial.center must be a list of 1 numbers"),
    ("initial", {"kind": "plane_wave", "mode": "ab"}, "initial.mode must be a list of 1 numbers"),
    ("initial", dict(GAUSSIAN, amplitude="ab"),
     "initial.amplitude must be a number or a [re, im] pair"),
    ("initial", dict(GAUSSIAN, amplitude={"re": 1}),
     "initial.amplitude must be a number or a [re, im] pair"),
    ("forcing", {"profile": GAUSSIAN, "envelope": 3}, "forcing.envelope must be an object"),
    ("forcing", {"profile": GAUSSIAN, "envelope": []}, "forcing.envelope must be an object"),
    ("forcing", {"profile": GAUSSIAN, "envelope": {"kind": "sine"}},
     "forcing.envelope.kind must be one of ['constant', 'harmonic'], got 'sine'"),
    ("forcing", {"profile": GAUSSIAN, "envelope": {"kind": "harmonic", "omega": "2"}},
     "forcing.envelope.omega must be a number, got '2'"),
    ("symbol", {"a": "ab"}, "symbol.a must be a list, got 'ab'"),
    ("symbol", {"a": [[1.0, 0.0], "ab"]}, "symbol.a[1] must be a list, got 'ab'"),
    ("symbol", {"a": [["1"]]}, "symbol.a[0][0] must be a number, got '1'"),
    ("outputs", {"report_path": 5}, "outputs.report_path must be a string, got 5"),
    ("outputs", {"report_path": ""}, "outputs.report_path must name a file, got ''"),
    ("outputs", {"report_path": "."}, "outputs.report_path must name a file, got '.'"),
    ("outputs", {"report_path": "/"}, "outputs.report_path must name a file, got '/'"),
    ("outputs", {"fields_path": 5}, "outputs.fields_path must be a string, got 5"),
    ("outputs", {"snapshot_frames": None}, "outputs.snapshot_frames must be a list, got None"),
    ("outputs", {"snapshot_frames": [0, 0.5]},
     "outputs.snapshot_frames[1] must be an integer, got 0.5"),
    ("outputs", {"snapshot_frames": [0, 51]}, "outputs.snapshot_frames entry 51 outside [0, Nt]"),
    ("dispersive", {"times": 2.0}, "dispersive.times must be a list, got 2.0"),
    ("dispersive", {"times": []}, "dispersive: times must list at least two times for a decay "
                                  "slope, got 0"),
    ("dispersive", {"times": [2.0]}, "dispersive: times must list at least two times for a decay "
                                     "slope, got 1"),
    ("dispersive", {"times": [2.0, "4"]}, "dispersive.times[1] must be a number, got '4'"),
    ("strichartz", {"num_samples": 2, "seed": -1, "band": 6},
     "strichartz: seed must be >= 0, got -1"),
    ("strichartz", {"num_samples": 2, "seed": 0, "band": 0}, "strichartz: band must be >= 1, got 0"),
    ("strichartz", {"num_samples": 0}, "strichartz: num_samples must be >= 1"),
    ("dispersive", {"times": [2.0, 4.0], "p": "infinite"},
     "dispersive.p must be a number or 'inf', got 'infinite'"),
    ("dispersive", {"times": [2.0, 4.0], "p": 1.5},
     "dispersive: dispersive check needs p in [2, inf], got 1.5"),
    ("tolerances", {"tol_fp": 0}, "tolerances: tol_fp must be positive, got 0.0"),
    ("tolerances", {"max_iter": 0}, "tolerances: max_iter must be >= 1, got 0"),
    ("symbol", {"a": [[1.0, 0.0], [0.0, 1.0]]}, "symbol dimension 2 does not match grid.n = 1"),
]


@pytest.mark.parametrize("section,bad,message", WRONG_VALUES,
                         ids=["center-dict", "center-str", "mode-str", "amplitude-str",
                              "amplitude-dict", "envelope-int", "envelope-list", "envelope-kind",
                              "envelope-omega", "symbol-str", "symbol-row", "symbol-entry",
                              "report-int", "report-empty", "report-dot", "report-root",
                              "fields-int", "frames-null", "frames-float", "frames-past-nt",
                              "times-number", "times-empty", "times-one", "times-entry",
                              "seed-negative", "band-zero", "samples-zero", "p-word", "p-below-2",
                              "tol-fp-zero", "max-iter-zero", "symbol-size"])
def test_wrong_shaped_profile_value_names_its_rule(tmp_path, capsys, section, bad, message):
    doc = make_config(outputs={"report_path": str(tmp_path / "bad")})
    doc[section] = bad
    assert run_command(["solve-linear", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_verify_strichartz_checks_its_default_band_at_parse(tmp_path, capsys):
    # N = 16 leaves no room for the default band 8 (band < N/2); only verify-strichartz uses it
    doc = make_config(grid={"n": 1, "N": 16, "R": math.pi},
                      outputs={"report_path": str(tmp_path / "st")})
    text = json.dumps(doc)
    with pytest.raises(ValidationError, match=r"^strichartz: band 8"):
        parse_config(text, "verify-strichartz")
    parse_config(text, "solve-linear")
    assert run_command(["verify-strichartz", "--config", write_config(tmp_path, doc)]) == 2
    assert "error: strichartz: band 8 does not fit" in capsys.readouterr().err
    assert run_command(["solve-linear", "--config", write_config(tmp_path, doc)]) == 0


def test_parse_holds_the_solve_nls_rules(tmp_path, capsys):
    # solve-nls needs a nonlinearity and takes no forcing; parse refuses either by its key
    forcing = {"profile": {"kind": "gaussian", "amplitude": 0.1, "width": 1.0, "center": [0.0]}}
    for key, doc in (("nonlinearity", make_config()),
                     ("forcing", make_config(nonlinearity={"lambda": -1.0, "p": 2.0},
                                             forcing=forcing))):
        doc["outputs"] = {"report_path": str(tmp_path / "nls")}
        text = json.dumps(doc)
        parse_config(text, "solve-linear")
        with pytest.raises(ValidationError, match=f"'{key}'"):
            parse_config(text, "solve-nls")
        assert run_command(["solve-nls", "--config", write_config(tmp_path, doc)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "nls.csv").exists()


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


def test_nls_observables_computed_once(tmp_path, count_calls):
    # the observables pass takes each frame's energy and |∇|^s once, in solve-nls (the Picard
    # diagnostics, the Strichartz value and the CSV) as in solve-linear (the CSV); η's datum
    # is |ξ|^s·φ̂, which filters nothing
    from mpnls import norms

    calls = count_calls(norms, "_hamiltonian", "_filtered")
    nt = 20
    path = write_config(tmp_path, _small_nls_doc(tmp_path, nt))
    for command in ("solve-nls", "solve-linear"):
        calls.update(dict.fromkeys(calls, 0))
        assert run_command([command, "--config", path]) == 0
        assert calls == {"_hamiltonian": nt + 1, "_filtered": nt + 1}, command


@pytest.mark.parametrize("command", ["solve-linear", "solve-nls"])
def test_a_solve_run_builds_its_spectral_context_once(tmp_path, count_calls, command):
    # a solve run builds L(ξ), its phases and D(ξ) in its core alone, and its report's min|D|
    # is the one the core compared with eps_res: the bits of the public min_abs_denominator
    from mpnls import linear
    from mpnls.cli import _build_runtime

    doc = dict(_small_nls_doc(tmp_path, 20),
               multipoint=[{"alpha_re": 0.3, "alpha_im": 0.2, "lambda": 0.5}])
    path = write_config(tmp_path, doc)
    calls = count_calls(linear, "symbol_lattice", "_Phases", "_denominator")
    assert run_command([command, "--config", path]) == 0
    assert calls == {"symbol_lattice": 1, "_Phases": 1, "_denominator": 1}
    sym, grid, mp, *_ = _build_runtime(parse_config(Path(path).read_text(), command))
    summary = json.loads((tmp_path / "nls.json").read_text())
    assert summary["min_abs_denominator"] == linear.min_abs_denominator(sym, grid, mp)


def _perfbench_selftest() -> dict:
    """SELFTEST_NT, SELFTEST_CONFIG and SELFTEST_COUNTS of perfbench/run.py, read by AST:
    those three assignments alone are evaluated, and run.py is not imported."""
    names = {"SELFTEST_NT", "SELFTEST_CONFIG", "SELFTEST_COUNTS"}
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    body = [node for node in tree.body if isinstance(node, ast.Assign)
            and len(node.targets) == 1 and getattr(node.targets[0], "id", None) in names]
    scope = {"__builtins__": {}}
    exec(compile(ast.Module(body=body, type_ignores=[]), "perfbench/run.py", "exec"), scope)
    assert set(scope) - {"__builtins__"} == names
    return scope


def test_transform_counts_match_the_benchmark_hand_count(tmp_path, count_calls):
    # perfbench's tracer self-test runs its SELFTEST_CONFIG through solve-linear and expects
    # SELFTEST_COUNTS transforms (φ̂, then per frame one propagation, the energy and the Ḣ^s
    # norm); both are read from perfbench/run.py, so a change that moves a transform call
    # fails here as it fails `perfbench/run.py --trace 1`
    from mpnls import grid

    calls = count_calls(grid, "forward_transform", "inverse_transform")
    bench = _perfbench_selftest()
    doc = dict(bench["SELFTEST_CONFIG"], outputs={"report_path": str(tmp_path / "selftest")})
    assert run_command(["solve-linear", "--config", write_config(tmp_path, doc)]) == 0
    assert {"grid.fwd_calls": calls["forward_transform"],
            "grid.inv_calls": calls["inverse_transform"]} == bench["SELFTEST_COUNTS"]


STREAMED_CASES = {
    "1d_constant_forcing_lambda_at_T": dict(
        grid={"n": 1, "N": 64, "R": 6.0}, time={"t0": 0.25, "T": 1.25, "Nt": 40},
        multipoint=[{"alpha_re": 0.3, "alpha_im": -0.2, "lambda": 1.25}], regularity=0.5,
        forcing={"profile": {"kind": "plane_wave", "amplitude": [0.2, 0.1], "mode": [3]}}),
    "2d_harmonic_forcing_no_terms": dict(
        symbol={"a": [[1.0, 0.2], [0.2, 1.5]]}, grid={"n": 2, "N": 32, "R": 5.0},
        time={"t0": 0.0, "T": 1.0, "Nt": 30},
        initial={"kind": "gaussian", "amplitude": 1.0, "width": 1.0, "center": [0.0, 0.3]},
        forcing={"profile": {"kind": "gaussian", "amplitude": 0.5, "width": 0.7,
                             "center": [0.2, 0.0]},
                 "envelope": {"kind": "harmonic", "omega": 2.0}},
        outputs={"snapshot_frames": [0, 7, 30]}),
    "unforced_two_terms": dict(
        multipoint=[{"alpha_re": 0.2, "alpha_im": 0.1, "lambda": 0.8},
                     {"alpha_re": 0.5, "lambda": 0.4}],
        outputs={"snapshot_frames": [0, 20, 40, 20]}),
}


@pytest.mark.parametrize("case", sorted(STREAMED_CASES))
def test_streamed_solve_linear_report_is_the_trajectory_report(tmp_path, case):
    # solve-linear reduces each block of its solve as it is made and keeps only u(t0), the
    # u(λₖ) and the snapshots: its CSV, min|D| and snapshots read the bits of the public
    # functions applied to solve_linear_multipoint's whole trajectory
    from mpnls.cli import _build_runtime, _timeseries_csv
    from mpnls.linear import min_abs_denominator, multipoint_residual, solve_linear_multipoint
    from mpnls.norms import frame_observables
    from mpnls.symbol import symbol_lattice

    doc = make_config(**STREAMED_CASES[case])
    doc["outputs"] = dict(doc.get("outputs", {}), report_path=str(tmp_path / "run"),
                          fields_path=str(tmp_path / "fields"))
    path = write_config(tmp_path, doc)
    assert run_command(["solve-linear", "--config", path]) == 0
    cfg = parse_config(Path(path).read_text(), "solve-linear")
    sym, grid, mp, phi, nl = _build_runtime(cfg)
    forcing = None
    if cfg.forcing is not None:  # the envelope of the config's kind on the solve's axis
        times, env = mp.times(cfg.time.nt), cfg.forcing.envelope
        g = np.ones(len(times)) if env.kind == "constant" else np.exp(-1j * env.omega * times)
        forcing = mpnls.SeparableForcing(mpnls.sample_profile(grid, cfg.forcing.profile), g)
    traj = solve_linear_multipoint(sym, grid, mp, phi, forcing, cfg.time.nt,
                                   cfg.tolerances.eps_res)
    obs = frame_observables(traj, symbol_lattice(sym, grid), nl, cfg.regularity)
    csv = _timeseries_csv(traj.times, obs, multipoint_residual(traj, mp, phi))
    assert (tmp_path / "run.csv").read_text() == csv
    summary = json.loads((tmp_path / "run.json").read_text())
    assert summary["min_abs_denominator"] == min_abs_denominator(sym, grid, mp)
    for m in set(cfg.outputs.snapshot_frames):
        mpnls.write_field_file(traj.frame(m), tmp_path / "expected.fld")
        assert ((tmp_path / "fields" / f"frame_{m:05d}.fld").read_bytes()
                == (tmp_path / "expected.fld").read_bytes())


def test_forced_2d_solve_linear_holds_no_trajectory(tmp_path, traced_peak):
    # the benchmark's forced 2-D solve: its blocks stream into the observables, so the run's
    # traced peak is its buffers, its few kept frames and its report, not a trajectory
    nt, grid = 200, {"n": 2, "N": 128, "R": 10.0}
    doc = make_config(
        symbol={"a": [[1.0, 0.2], [0.2, 1.5]]}, grid=grid, time={"t0": 0.0, "T": 1.0, "Nt": nt},
        multipoint=[{"alpha_re": 0.5, "lambda": 0.4}, {"alpha_re": 0.2, "alpha_im": 0.1,
                                                         "lambda": 0.8}],
        initial={"kind": "gaussian", "amplitude": 1.0, "width": 1.0, "center": [0.0, 0.0]},
        forcing={"profile": {"kind": "gaussian", "amplitude": 0.1, "width": 1.0,
                             "center": [0.0, 0.0]},
                 "envelope": {"kind": "harmonic", "omega": 3.0}},
        outputs={"report_path": str(tmp_path / "run"), "fields_path": str(tmp_path / "fields"),
                 "snapshot_frames": [0, 100, nt]})
    path = write_config(tmp_path, doc)
    warm = dict(doc, grid={"n": 2, "N": 16, "R": 10.0}, time={"t0": 0.0, "T": 1.0, "Nt": 10},
                outputs={"report_path": str(tmp_path / "warm"), "snapshot_frames": [0]})
    assert run_command(["solve-linear", "--config", write_config(tmp_path, warm, "warm.json")]) == 0
    code, peak = traced_peak(lambda: run_command(["solve-linear", "--config", path]))
    assert code == 0
    assert peak / ((nt + 1) * grid["N"] ** 2 * 16) <= 0.25


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
    # the nonlinearity of the linear solution overflows: the data themselves are not finite
    doc = make_config(
        grid={"n": 1, "N": 64, "R": 10.0},
        initial={"kind": "gaussian", "amplitude": 1e200, "width": 1.0, "center": [0.0]},
        nonlinearity={"lambda": -1.0, "p": 2.0},
        outputs={"report_path": str(tmp_path / "x")})
    code = run_command(["solve-nls", "--config", write_config(tmp_path, doc)])
    assert code == 5
    assert "nonlinearity overflowed" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_forced_linear_overflow_exits_5_without_warnings(tmp_path, capsys):
    # the transform of a 1.7e308 forcing overflows; the frame check of the propagation
    # reports it, and no numpy warning leaks (the suite turns one into an error)
    doc = make_config(
        forcing={"profile": {"kind": "gaussian", "amplitude": 1.7e308, "width": 1.0,
                             "center": [0.0]}},
        outputs={"report_path": str(tmp_path / "x")})
    code = run_command(["solve-linear", "--config", write_config(tmp_path, doc)])
    assert code == 5
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: propagated frame at t=")
    assert lines[0].endswith("is not finite")
    assert list(tmp_path.glob("x*")) == []


def _huge_nls_doc(tmp_path, amplitude, lam, p):
    return make_config(
        grid={"n": 1, "N": 32, "R": 5.0},
        time={"t0": 0.0, "T": 1.0, "Nt": 10},
        initial={"kind": "gaussian", "amplitude": amplitude, "width": 0.5, "center": [0.0]},
        nonlinearity={"lambda": lam, "p": p},
        outputs={"report_path": str(tmp_path / "huge")})


def test_nls_huge_finite_data_report_finite_norms(tmp_path):
    # (1e60)^8 overflows in the (8,4) Strichartz norm, whose true value is about 1e60
    doc = _huge_nls_doc(tmp_path, 1e60, 1e-200, 2.0)
    assert run_command(["solve-nls", "--config", write_config(tmp_path, doc)]) == 0
    summary = json.loads((tmp_path / "huge.json").read_text())
    assert 1e59 < summary["strichartz_value"] < 1e61


def test_nls_non_finite_summary_exits_5_without_reports(tmp_path, capsys):
    # the energy of a 1e160 gaussian is past the float range; the overflow warns
    # nowhere (the suite turns a RuntimeWarning into an error) and exits 5 naming it
    doc = _huge_nls_doc(tmp_path, 1e160, 1e-100, 0.5)
    code = run_command(["solve-nls", "--config", write_config(tmp_path, doc)])
    assert code == 5
    assert "energy is not finite" in capsys.readouterr().err
    assert not (tmp_path / "huge.csv").exists()
    assert not (tmp_path / "huge.json").exists()


def test_dispersive_datum_whose_transform_overflows_exits_5_quietly(tmp_path, capsys):
    # a finite 1.7e308 datum overflows in its forward transform; the propagated frame
    # check names it, and no numpy warning (an error in this suite) gets out first
    doc = make_config(grid={"n": 1, "N": 16, "R": 4.0},
                      initial={"kind": "gaussian", "amplitude": 1.7e308, "width": 0.5,
                               "center": [0.0]},
                      outputs={"report_path": str(tmp_path / "disp")})
    assert run_command(["verify-dispersive", "--config", write_config(tmp_path, doc)]) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.match(r"^error: propagated frame at t=\S+ is not finite$", err[0])
    assert not list(tmp_path.glob("disp*"))


def test_dispersive_zero_datum_exits_5_naming_its_norm(tmp_path, capsys):
    # ‖φ‖_{p'} = 0 leaves every quotient ‖U_L(t)φ‖_p / (t^{-n(1/2-1/p)}‖φ‖_{p'}) undefined
    doc = make_config(grid={"n": 1, "N": 8, "R": 1.0}, time={"t0": 0.0, "T": 1.0, "Nt": 1},
                      initial={"kind": "plane_wave", "amplitude": 0.0, "mode": [0]},
                      outputs={"report_path": str(tmp_path / "disp")})
    assert run_command(["verify-dispersive", "--config", write_config(tmp_path, doc)]) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: datum norm ||phi||_p' is 0"), err
    assert "quotients are undefined" in err[0]
    assert not list(tmp_path.glob("disp*"))


@pytest.mark.parametrize("N, amplitude, times", [(8, 1.0, [1.0, 1e300]),
                                                 (4, 1e-300, [1e-300, 1e300])])
def test_dispersive_quotient_past_the_double_range_exits_5_naming_t(tmp_path, capsys, N,
                                                                     amplitude, times):
    # t^{-3/2} underflows to 0 at t = 1e300 and overflows at t = 1e-300: the quotient is
    # refused where it is made, with one error line and no traceback or warning
    doc = make_config(symbol={"a": np.eye(3).tolist()}, grid={"n": 3, "N": N, "R": 10.0},
                      initial={"kind": "gaussian", "amplitude": amplitude, "width": 1.0},
                      dispersive={"times": times, "p": "inf"},
                      outputs={"report_path": str(tmp_path / "disp")})
    assert run_command(["verify-dispersive", "--config", write_config(tmp_path, doc)]) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: dispersive quotient at t="), err
    assert "leaves the double range" in err[0]
    assert not list(tmp_path.glob("disp*"))


def test_non_finite_summary_value_raises_naming_its_key():
    cfg = parse_config(json.dumps(MINIMAL), "solve-linear")
    result = RunResult("", {"min_abs_denominator": math.nan})
    with pytest.raises(NonFiniteError, match="summary value 'min_abs_denominator' is not finite"):
        _summary_json(result, cfg)


def test_nls_picard_divergence_is_not_blowup(tmp_path, capsys):
    # a 1-D cubic solution stays finite, so a Picard iteration that runs away is
    # divergence (exit 4), never PDE blow-up (exit 5)
    doc = make_config(
        grid={"n": 1, "N": 64, "R": 10.0},
        initial={"kind": "gaussian", "amplitude": 1000.0, "width": 1.0, "center": [0.0]},
        nonlinearity={"lambda": -1.0, "p": 2.0},
        outputs={"report_path": str(tmp_path / "x")})
    code = run_command(["solve-nls", "--config", write_config(tmp_path, doc)])
    assert code in (0, 4)
    if code == 4:
        assert "diverged" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


def test_mixing_solve_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Anderson mixing sums its inner products in numpy, not in BLAS vdot, whose summation
    # order follows the BLAS thread count
    doc = make_config(
        grid={"n": 1, "N": 128, "R": 10.0},
        time={"t0": 0.0, "T": 1.0, "Nt": 100},
        multipoint=[{"alpha_re": 0.3, "alpha_im": 0.0, "lambda": 0.5}],
        initial={"kind": "gaussian", "amplitude": 1.0, "width": 1.0, "center": [0.0]},
        nonlinearity={"lambda": -1.0, "p": 2.0},
        tolerances={"max_iter": 100},
        outputs={"report_path": "r"})
    config = write_config(tmp_path, doc)
    src = str(Path(mpnls.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "mpnls.cli", "solve-nls", "--config", config],
                       cwd=out, env=env, check=True, capture_output=True, timeout=120)
        reports.append([(out / name).read_bytes() for name in ("r.csv", "r.json")])
    assert max(json.loads(reports[0][1])["contraction_ratios"]) > 0.5  # above MIX_GATE: it mixes
    assert reports[0] == reports[1]


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


@pytest.mark.parametrize("amplitude", [1e-200, 1e200])
def test_verify_dispersive_boundary_fractions_do_not_depend_on_the_scale(tmp_path, amplitude):
    # a datum of amplitude 1e-200 or 1e200 reports the fractions and the wrap-around warning
    # of amplitude 1
    reports = []
    for a in (1.0, amplitude):
        doc = make_config(
            grid={"n": 1, "N": 64, "R": 10.0},
            initial={"kind": "gaussian", "amplitude": a, "width": 4.0, "center": [8.0]},
            dispersive={"times": [1.0, 2.0], "p": "inf"},
            outputs={"report_path": str(tmp_path / "disp")})
        assert run_command(["verify-dispersive", "--config", write_config(tmp_path, doc)]) == 0
        rows = (tmp_path / "disp.csv").read_text().splitlines()[1:-1]
        reports.append(([float(row.split(",")[3]) for row in rows],
                        json.loads((tmp_path / "disp.json").read_text())["warnings"]))
    (fractions, warnings), (scaled, scaled_warnings) = reports
    assert scaled == pytest.approx(fractions, rel=1e-12) and all(map(math.isfinite, scaled))
    assert any("wrap-around" in w for w in warnings) and scaled_warnings == warnings


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


def test_verifiers_build_only_what_they_read(tmp_path, monkeypatch):
    # verify-strichartz samples no datum, so a from_file initial it never reads does not fail
    # it; verify-dispersive samples its datum but builds no forcing
    from mpnls import cli

    doc = make_config(initial={"kind": "from_file", "path": str(tmp_path / "missing.fld")},
                      time={"t0": 0.0, "T": 1.0, "Nt": 16},
                      strichartz={"num_samples": 2, "seed": 1, "band": 6},
                      outputs={"report_path": str(tmp_path / "st")})
    assert run_command(["verify-strichartz", "--config", write_config(tmp_path, doc)]) == 0
    assert run_command(["solve-linear", "--config", write_config(tmp_path, doc)]) == 1
    sampled, sample = [], cli.sample_profile

    def recorded(grid, spec):
        sampled.append(spec)
        return sample(grid, spec)

    monkeypatch.setattr(cli, "sample_profile", recorded)
    doc = make_config(forcing={"profile": {"kind": "plane_wave", "amplitude": 0.1, "mode": [1]}},
                      outputs={"report_path": str(tmp_path / "disp")})
    assert run_command(["verify-dispersive", "--config", write_config(tmp_path, doc)]) == 0
    assert sampled == [doc["initial"]]


CLASSIFY_REFUSALS = [  # (n, p, s), exit code, the error message
    (("0", "2", "0"), 2, "dimension must be a positive integer, got 0"),
    (("-3", "2", "0"), 2, "dimension must be a positive integer, got -3"),
    (("3", "2", "nan"), 2, "regularity s must be finite, got nan"),
    (("3", "2", "inf"), 2, "regularity s must be finite, got inf"),
    (("3", "inf", "0"), 2, "power p must be finite, got inf"),
    (("3", "1e-310", "0"), 5, "summary value 's_c' is not finite"),
    # a negative value in e-notation, or -inf, reaches the rule, not argparse's usage error
    (("3", "-2e0", "0"), 2, "power p must be positive, got -2.0"),
    (("3", "2", "-inf"), 2, "regularity s must be finite, got -inf"),
]


def test_classify_stdout(capsys):
    assert run_command(["classify", "--n", "3", "--p", "4", "--s", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"] == "critical"
    assert out["s_c"] == 1.0
    # a negative s in e-notation, given after a space as with `=`
    for args in (["--s", "-1e-3"], ["--s=-1e-3"]):
        assert run_command(["classify", "--n", "3", "--p", "2", *args]) == 0
        assert json.loads(capsys.readouterr().out) == {"class": "supercritical", "n": 3,
                                                       "p": 2.0, "s": -0.001, "s_c": 0.5}
    # a refusal prints nothing on stdout: no NaN or Infinity, which strict JSON rejects
    for (n, p, s), code, message in CLASSIFY_REFUSALS:
        assert run_command(["classify", "--n", n, "--p", p, "--s", s]) == code
        assert capsys.readouterr() == ("", f"error: {message}\n")
    # a usage error is argparse's: exit 2, with its usage line
    assert run_command(["classify", "--n", "3", "--p", "2"]) == 2
    assert capsys.readouterr().err.startswith("usage: mpnls classify ")


def test_check_admissible_stdout(capsys):
    assert run_command(["check-admissible", "--n", "2", "--q", "2", "--r", "inf"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "rejected"
    assert run_command(["check-admissible", "--n", "2", "--q", "8", "--r", "8/3"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "sharp"
    for args, message in ((["--n", "0", "--q", "2", "--r", "inf"],
                           "dimension must be a positive integer, got 0"),
                          (["--n", "2", "--q", "abc", "--r", "8"], "cannot parse exponent 'abc'"),
                          (["--n", "2", "--q", "-1e1", "--r", "4"],
                           "admissible exponents need q, r >= 2, got q=-10, r=4"),
                          (["--n", "2", "--q", "4", "--r", "-inf"],
                           "cannot parse exponent '-inf'")):
        assert run_command(["check-admissible", *args]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


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


def test_parse_rejects_off_grid_lambda(tmp_path, capsys):
    # Nt = 50 puts frames at multiples of 0.02; 0.333 is none of them
    doc = make_config(multipoint=[{"alpha_re": 0.3, "alpha_im": 0.0, "lambda": 0.333}],
                      outputs={"report_path": str(tmp_path / "off")})
    with pytest.raises(ValidationError, match=r"multipoint\[0\]\.lambda"):
        parse_config(json.dumps(doc))
    for command in ("solve-linear", "solve-nls"):
        assert run_command([command, "--config", write_config(tmp_path, doc)]) == 2
        assert "not on the time grid" in capsys.readouterr().err
    assert not (tmp_path / "off.csv").exists()
    assert not (tmp_path / "off.json").exists()


def test_a_lambda_on_a_long_horizon_is_on_the_time_grid(tmp_path):
    # a grid time carries about one ulp of T: at T = 1e4 the frame time 6·T/7 and the
    # decimal 8571.42857142857 differ by 2e-12, within the tolerance relative to |T|
    doc = make_config(time={"t0": 0.0, "T": 1e4, "Nt": 7},
                      multipoint=[{"alpha_re": 0.3, "lambda": 8571.42857142857}],
                      outputs={"report_path": str(tmp_path / "long")})
    assert run_command(["solve-linear", "--config", write_config(tmp_path, doc)]) == 0
    assert (tmp_path / "long.json").exists()


@pytest.mark.parametrize("command, name, builds", [("solve-linear", "forced_harmonic_2d", 1),
                                                   ("solve-nls", "nls_1d_late_gate", 2),
                                                   ("verify-strichartz", "strichartz_check", 1)])
def test_a_run_builds_its_time_axis_once(tmp_path, monkeypatch, command, name, builds):
    # the solve's core (or the verifier) builds the axis and its report reads it there: parse
    # checks each λ against t0 + k·Δt with no axis, and a solve-nls CSV reads its trajectory's
    axes = []
    linspace = np.linspace

    def counted(*args, **kwargs):
        axes.append(args)
        return linspace(*args, **kwargs)

    monkeypatch.setattr(np, "linspace", counted)
    monkeypatch.chdir(tmp_path)
    doc = SMALL_CASES[name][1] if name in SMALL_CASES else json.loads(
        (ROOT / "configs" / f"{name}.json").read_text())
    parse_config(json.dumps(doc), command)
    builds_by_parse = len(axes)
    assert (run_small(name) if name in SMALL_CASES else run_shipped(name)) == 0
    assert (builds_by_parse, len(axes)) == (0, builds)


def _config_of_dimension(n: int, **overrides) -> dict:
    """MINIMAL in n dimensions, with its overrides."""
    return make_config(**dict(dict(
        symbol={"a": np.eye(n).tolist()}, grid={"n": n, "N": 8, "R": math.pi},
        initial={"kind": "gaussian", "amplitude": 1.0, "width": 0.5, "center": [0.0] * n}),
        **overrides))


NEAR_THE_DOUBLE_RANGE = {  # name: (command, config, exit code, the start of its error line)
    "subnormal_step": ("solve-linear", make_config(
        time={"t0": 0.0, "T": 5e-324, "Nt": 2}, multipoint=[{"alpha_re": 0.2, "lambda": 5e-324}]),
        2, "error: time: time step (T - t0)/nt = 0.0 is not a positive finite number"),
    "overflowing_step": ("solve-nls", make_config(
        time={"t0": -1e308, "T": 1e308, "Nt": 8}, nonlinearity={"lambda": -1.0, "p": 2.0}),
        2, "error: time: time step (T - t0)/nt = inf is not a positive finite number"),
    "box_2d": ("solve-linear", _config_of_dimension(2, grid={"n": 2, "N": 8, "R": 1e155}),
               2, "error: grid: half-width R=1e+155 takes the box volume"),
    "box_3d": ("solve-linear", _config_of_dimension(3, grid={"n": 3, "N": 4, "R": 1e110}),
               2, "error: grid: half-width R=1e+110 takes the box volume"),
    "box_3d_small": ("solve-linear", _config_of_dimension(3, grid={"n": 3, "N": 4, "R": 1e-110}),
                     2, "error: grid: half-width R=1e-110 takes the box volume"),
    "box_strichartz": ("verify-strichartz", _config_of_dimension(
        2, grid={"n": 2, "N": 8, "R": 7.6e153}, strichartz={"num_samples": 1, "band": 1}),
        2, "error: grid: half-width R=7.6e+153 takes the box volume"),
    "symbol_overflow": ("solve-linear", make_config(symbol={"a": [[1e308]]}),
                        2, "error: symbol.a: coefficient matrix a, or 0.5*(a + a^T), is not finite"),
    "lattice_overflow": ("solve-linear", make_config(
        symbol={"a": [[1e307]]}, grid={"n": 1, "N": 16, "R": 4.0}),
        5, "error: symbol L(xi) is not finite on the frequency lattice"),
    "denominator_overflow": ("solve-linear", make_config(
        symbol={"a": [[1e306]]}, grid={"n": 1, "N": 16, "R": 4.0},
        time={"t0": 0.0, "T": 1e10, "Nt": 8}, multipoint=[{"alpha_re": 0.2, "lambda": 1e10}]),
        5, "error: multipoint denominator D(xi) is not finite"),
    "envelope_overflow": ("solve-linear", make_config(
        forcing={"profile": {"kind": "gaussian", "amplitude": 0.1},
                 "envelope": {"kind": "harmonic", "omega": 1e308}}, time={"t0": 0.0, "T": 2.0, "Nt": 8}),
        5, "error: forcing envelope contains NaN or Inf"),
    "far_centre": ("solve-linear", make_config(
        initial={"kind": "gaussian", "amplitude": 1.0, "width": 0.5, "center": [1e200]}), 0, ""),
}


@pytest.mark.parametrize("name", sorted(NEAR_THE_DOUBLE_RANGE))
def test_a_config_near_the_double_range_ends_by_its_rule(tmp_path, capsys, name):
    # each was a traceback, a leaked RuntimeWarning (the suite makes one an error) or a NaN
    # frame: now a refusal at parse that names its section (2), one error line for a value
    # the run cannot make (5), or a quiet run (0)
    command, doc, code, error = NEAR_THE_DOUBLE_RANGE[name]
    doc = dict(doc, outputs={"report_path": str(tmp_path / "r")})
    if code == 2:
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc), command)
    assert run_command([command, "--config", write_config(tmp_path, doc)]) == code
    err = capsys.readouterr().err
    assert err.startswith(error) and len(err.splitlines()) == (code != 0), err


def test_parse_names_the_offending_term():
    doc = make_config(multipoint=[{"alpha_re": 0.3, "lambda": 0.5},
                                  {"alpha_re": 0.1, "lambda": 1.5}])
    with pytest.raises(ValidationError, match=r"multipoint\[1\]\.lambda"):
        parse_config(json.dumps(doc))


def test_from_file_profile_is_checked_when_read(tmp_path, capsys):
    import mpnls

    wrong = tmp_path / "wrong.fld"  # a field on another grid: the header does not match
    mpnls.write_field_file(mpnls.Field(mpnls.build_grid(1, 32, math.pi), np.ones(32)), wrong)
    for path, code in ((wrong, 2), (tmp_path / "missing.fld", 1)):
        doc = make_config(initial={"kind": "from_file", "path": str(path)},
                          outputs={"report_path": str(tmp_path / "ff")})
        parse_config(json.dumps(doc))  # parse reads no files
        assert run_command(["solve-linear", "--config", write_config(tmp_path, doc)]) == code
        assert not (tmp_path / "ff.csv").exists()


@pytest.mark.parametrize("width", [1e200, 1e-200])
def test_gaussian_width_out_of_range_exits_2(tmp_path, capsys, width):
    # 2*width^2 overflows (1e200) or underflows to 0 (1e-200): a config error, caught at parse
    bad = {"kind": "gaussian", "amplitude": 0.1, "width": width, "center": [0.0]}
    for path, doc in (("initial", make_config(initial=bad)),
                      ("forcing.profile", make_config(forcing={"profile": bad}))):
        doc["outputs"] = {"report_path": str(tmp_path / "wide")}
        assert run_command(["solve-linear", "--config", write_config(tmp_path, doc)]) == 2
        assert f"{path}: gaussian width" in capsys.readouterr().err
        assert not (tmp_path / "wide.csv").exists()
