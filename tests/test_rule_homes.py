"""Each rule of the time axis and of finiteness, and each phase, has one home in `src/mpnls`.

The axis t0 + k·(T−t0)/nt is built only by `MultipointSpec.times`, which checks
nt ≥ 1, and by `Trajectory.times`, whose nt and span were checked when the
trajectory was made.  Neither transform scans its input for NaN or Inf: a
Field's samples are finite by construction, and `linear._propagate` checks
every frame it writes.  Every phase e^{-iτL(ξ)} of the solvers comes from
`linear._Phases`, the one place that reduces L(ξ) to its distinct values.
These tests read the source, so a copy cannot regrow.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mpnls"


def numpy_uses(attr: str) -> list[str]:
    """'module:definition' of every use of np.<attr> in src, by its innermost enclosing
    function or class, dotted from the module level."""
    found = []

    def visit(node, owner, module):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{owner}.{child.name}" if owner else child.name
            if (isinstance(child, ast.Attribute) and child.attr == attr
                    and isinstance(child.value, ast.Name) and child.value.id in ("np", "numpy")):
                found.append(f"{module}:{owner}")
            visit(child, name, module)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path.stem)
    return sorted(found)


def test_the_time_axis_is_built_in_one_place_per_type():
    assert numpy_uses("linspace") == ["grid:Trajectory.times", "linear:MultipointSpec.times"]


def test_the_transforms_trust_the_finite_field():
    assert numpy_uses("isfinite")  # the walk sees the scans that remain
    assert not {"grid:forward_transform", "grid:inverse_transform"} & set(numpy_uses("isfinite"))


def test_every_phase_comes_from_the_one_evaluator():
    assert numpy_uses("unique") == ["linear:_Phases.__init__"]
    exps = [use for use in numpy_uses("exp") if use.split(":")[0] in ("linear", "nonlinear")]
    assert exps and all(use.startswith("linear:_Phases.") for use in exps)
