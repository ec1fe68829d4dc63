"""Each rule of the time axis, of finiteness and of resonance, and each phase, has one home
in `src/mpnls`.

The axis t0 + k·(T−t0)/nt is built only by `MultipointSpec.times`, which checks
nt ≥ 1, and by `Trajectory.times`, whose nt and span were checked when the
trajectory was made.  Neither transform scans its input for NaN or Inf: a
Field's samples are finite by construction, and `linear._propagate` checks
every frame it writes.  Every phase e^{-iτL(ξ)} of the solvers comes from
`linear._Phases`, the one place that reduces L(ξ) to its distinct values.
D(ξ) and min|D| are built only by `linear._denominator`, and only the
multipoint core refuses a resonant solve.  An inadmissible Strichartz pair is
refused only by `norms.make_pair`.  A config is read off its dataclasses
by `cli._section`, and a profile by `cli._validate_profile`: no other reader
checks keys, and `parse_config` hands the JSON to `_section` whole.  Every
value rule lives in the library module that owns it, and `parse_config` raises
a ValidationError of its own only for the rules of the CLI alone.
These tests read the source, so a copy cannot regrow.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mpnls"


def sites(hit) -> list[str]:
    """'module:definition' of every node of src for which hit(node) holds, by its innermost
    enclosing function or class, dotted from the module level."""
    found = []

    def visit(node, owner, module):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{owner}.{child.name}" if owner else child.name
            if hit(child):
                found.append(f"{module}:{owner}")
            visit(child, name, module)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path.stem)
    return sorted(found)


def numpy_uses(attr: str) -> list[str]:
    """The sites of every use of np.<attr> in src."""
    return sites(lambda node: isinstance(node, ast.Attribute) and node.attr == attr
                 and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


def raises(error: str) -> list[str]:
    """The sites of every `raise error(...)` in src."""
    def hit(node):
        if not isinstance(node, ast.Raise):
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == error

    return sites(hit)


def test_the_time_axis_is_built_in_one_place_per_type():
    assert numpy_uses("linspace") == ["grid:Trajectory.times", "linear:MultipointSpec.times"]


def test_the_transforms_trust_the_finite_field():
    assert numpy_uses("isfinite")  # the walk sees the scans that remain
    assert not {"grid:forward_transform", "grid:inverse_transform"} & set(numpy_uses("isfinite"))


def test_every_phase_comes_from_the_one_evaluator():
    assert numpy_uses("unique") == ["linear:_Phases.__init__"]
    exps = [use for use in numpy_uses("exp") if use.split(":")[0] in ("linear", "nonlinear")]
    assert exps and all(use.startswith("linear:_Phases.") for use in exps)


def test_resonance_is_judged_in_one_place():
    # D(ξ) and min|D| have one builder, and the core alone compares min|D| with eps_res
    assert numpy_uses("min") == ["linear:_denominator"]
    assert raises("ResonanceError") == ["linear:_MultipointCore.__init__"]

    def compares_eps_res(node):
        return isinstance(node, ast.Compare) and any(
            getattr(sub, "id", getattr(sub, "attr", None)) == "eps_res" for sub in ast.walk(node))

    # eps_res is compared by its own check, which the CLI calls, and by the core's refusal
    assert sites(compares_eps_res) == ["linear:_MultipointCore.__init__", "linear:check_eps_res"]


def test_the_config_has_one_schema_reader():
    def calls(name):
        return lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == name

    assert raises("UnknownKeyError") == ["cli:_check_keys"]
    assert sites(calls("_check_keys")) == ["cli:_section", "cli:_validate_profile"]
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    parse = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "parse_config")
    # the parsed JSON is read only as an argument of isinstance and of _section, never
    # subscripted or .get-ed by a reader of its own
    readers = [call.func.id for call in ast.walk(parse) if isinstance(call, ast.Call)
               for arg in call.args if getattr(arg, "id", None) == "raw"]
    loads = [node for node in ast.walk(parse)
             if isinstance(node, ast.Name) and node.id == "raw" and isinstance(node.ctx, ast.Load)]
    assert sorted(readers) == ["_section", "isinstance"] and len(loads) == 2


def test_an_inadmissible_pair_is_refused_in_one_place():
    assert raises("InadmissiblePairError") == ["norms:make_pair"]


def test_parse_raises_only_the_rules_of_the_cli():
    # the symbol's size against grid.n, solve-nls's two rules, a report path that names a
    # file and the snapshot frames; every other rule is a library check that _checked names
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    parse = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "parse_config")
    messages = sorted(
        node.exc.args[0].values[0].value if isinstance(node.exc.args[0], ast.JoinedStr)
        else node.exc.args[0].value
        for node in ast.walk(parse) if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call) and getattr(node.exc.func, "id", None) == "ValidationError")
    assert messages == ["key 'forcing' is not supported by solve-nls",
                        "missing required key 'nonlinearity': solve-nls needs one",
                        "outputs.report_path must name a file, got ",
                        "outputs.snapshot_frames entry ",
                        "symbol dimension "]
