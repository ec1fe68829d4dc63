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
a ValidationError of its own only for the rules of the CLI alone.  The
nonlinearity has one type, `PowerNonlinearity`, which is also its config
section, and its contraction metric one definition, `nonlinear._metric_norm`.
numpy's FFT runs only in the two transforms of `grid`, and L(ξ) is built on the
lattice only by `symbol.symbol_lattice`.  Each input of a solve has one home: a
datum lives on the grid of its pass, which only its one transform,
`linear._datum_spectrum`, checks, and a trajectory is checked against its axis
only by `linear._check_on_axis`; a forcing's type is read only by the core's
`duhamel`, past the type guard of `solve_linear_multipoint`.  A stack of frames is
reduced to its per-frame L^r norms only by `norms._frame_norms`, whose one-frame case
is `lebesgue_norm`, and so are the blocks of a propagation that is never stacked; every
frame is propagated by the one kernel `linear._propagate`, whose phases are table rows,
and |ξ|^s is built only by the one filter `norms._riesz`.  These
tests read the source, so a copy cannot regrow.
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


def calls(name: str) -> list[str]:
    """The sites of every call of the bare name `name` in src."""
    return sites(lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == name)


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


def test_the_propagation_has_one_kernel():
    # every frame a solver or a verifier propagates is made by `_propagate`, one
    # inverse_transform per frame, and its phases are table rows: the single-phase evaluator
    # serves D(ξ) and the Duhamel step alone
    assert [use for use in calls("inverse_transform")
            if use.split(":")[0] in ("linear", "nonlinear")] == ["linear:_propagate"]

    def calls_the_evaluator(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "phases"
            or getattr(node.func, "attr", None) in ("phases", "__call__"))

    assert sites(calls_the_evaluator) == ["linear:_MultipointCore.__init__", "linear:_denominator"]


def test_the_transforms_have_one_home():
    # numpy's FFT runs only in the two transforms; L(ξ) has one builder on the lattice, and
    # |ξ|² one more, so no gradient form of L(ξ) can grow back
    assert numpy_uses("fft") == ["grid:_forward_frames", "grid:inverse_transform"]
    assert sites(lambda node: isinstance(node, ast.Call) and getattr(node.func, "attr", None)
                 == "freq_mesh") == ["grid:SpectralGrid.radial_freq_sq", "symbol:symbol_lattice"]


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
    assert raises("UnknownKeyError") == ["cli:_check_keys"]
    assert calls("_check_keys") == ["cli:_section", "cli:_validate_profile"]
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


def test_the_contraction_metric_has_one_definition():
    # r(p,n) is worked out where the metric is measured and where the solve reports r and
    # its clamp flag; every mixed norm that nonlinear.py takes, of a stack or of a
    # propagation's blocks (`_mixed_norm`, the core of `mixed_norm`), is the metric's
    assert calls("metric_exponent") == ["nonlinear:_metric_norm", "nonlinear:solve_nls_multipoint"]
    assert [use for use in calls("mixed_norm") + calls("_mixed_norm")
            if use.startswith("nonlinear:")] == ["nonlinear:_metric_norm"]


def test_the_nonlinearity_has_one_type():
    # the nonlinearity section is PowerNonlinearity itself, not a CLI class with its fields
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    fields = {node.name: {stmt.target.id for stmt in node.body if isinstance(stmt, ast.AnnAssign)}
              for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert "lam" in fields["MultipointTerm"]  # the walk sees the config's fields
    assert [name for name, names in fields.items() if {"lam", "p"} <= names] == []


def test_a_datum_lives_on_the_grid_of_its_pass():
    # a .grid is compared only where a datum is transformed and a trajectory checked
    def compares_a_grid(node):
        return isinstance(node, ast.Compare) and any(
            isinstance(side, ast.Attribute) and side.attr == "grid"
            for side in [node.left, *node.comparators])

    assert sites(compares_a_grid) == ["linear:_check_on_axis", "linear:_datum_spectrum"]


def test_a_forcing_is_read_in_one_place():
    # the forcing's type is branched on by its one reader, and refused at the public guard
    def asks_for_a_forcing_type(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" \
            and any(getattr(sub, "id", None) in ("SeparableForcing", "Trajectory")
                    for sub in ast.walk(node.args[1]))

    assert sorted(set(sites(asks_for_a_forcing_type))) == [
        "linear:_MultipointCore.duhamel", "linear:solve_linear_multipoint"]


def test_the_lebesgue_norms_have_one_reduction():
    # |u| is taken and rescaled past 0 or ∞ by the frame kernel, not by a per-frame copy,
    # whether its frames come from a stack or a propagation's blocks
    assert calls("_power_root") == ["norms:_frame_norms", "norms:_time_norm"]
    assert [use for use in numpy_uses("abs") if use.startswith("norms:")] == [
        "norms:_frame_norms", "norms:_hamiltonian", "norms:mass"]


def test_the_riesz_multiplier_has_one_filter():
    assert sites(lambda node: isinstance(node, ast.Call) and getattr(node.func, "attr", None)
                 == "radial_freq_sq") == ["norms:_riesz"]
