"""Every private name that README.md puts in backticks is defined in `src/mpnls`.

README describes the package by its private helpers (`linear._Phases`, `norms._riesz`,
`_Phases.table`, `_section(SolveConfig, …)`), so a helper that is renamed or deleted would
leave README naming code that is gone.  A code span counts when the whole span is a dotted
name, optionally called, with a part that starts with `_`.  An optional leading `mpnls.` and
module name fix the module; the first name must be defined at the top level of that module,
or of any module without one, and each later name inside the class before it.  Definitions
are read by AST: a def, a class, an assignment, or a `self.<name> =` in a method."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mpnls"

SPAN = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"^((?:[A-Za-z_]\w*\.)*[A-Za-z_]\w*)(?:\(.*\))?$")


def bound_names(body) -> set[str]:
    """The names that a block of statements defines: defs, classes and assignment targets."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(sub.id for target in targets for sub in ast.walk(target)
                         if isinstance(sub, ast.Name))
    return names


def class_members(cls: ast.ClassDef) -> set[str]:
    """The names of a class body and every `self.<name> =` in its methods."""
    members = bound_names(cls.body)
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            members.update(t.attr for target in targets for t in ast.walk(target)
                           if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self")
    return members


def definitions() -> dict[str, tuple[set[str], dict[str, set[str]]]]:
    """Per module of src: its top-level names and the members of each of its classes."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = {node.name: class_members(node) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)}
        out[path.stem] = (bound_names(tree.body), classes)
    return out


def private_names(text: str) -> list[str]:
    """The dotted names of the code spans of `text` that name something private."""
    found = []
    for span in SPAN.findall(text):
        match = DOTTED.match(span.strip())
        if match and any(part.startswith("_") for part in match.group(1).split(".")):
            found.append(match.group(1))
    return sorted(set(found))


def resolves(dotted: str, defs) -> bool:
    parts = dotted.split(".")
    if parts[0] == "mpnls":
        parts = parts[1:]
    modules = [parts.pop(0)] if parts and parts[0] in defs else list(defs)
    if not parts:
        return True  # a module itself
    for module in modules:
        top, classes = defs[module]
        if parts[0] not in top:
            continue
        owner, ok = parts[0], True
        for name in parts[1:]:
            if name not in classes.get(owner, set()):
                ok = False
                break
            owner = name
        if ok:
            return True
    return False


def test_the_readme_names_only_code_that_exists():
    names = private_names((ROOT / "README.md").read_text(encoding="utf-8"))
    assert "linear._Phases" in names and "_Phases.table" in names  # the scan sees README's names
    defs = definitions()
    assert [name for name in names if not resolves(name, defs)] == []


@pytest.mark.parametrize("text, missing", [
    ("`norms._gone` and `_Phases.nothing`", ["_Phases.nothing", "norms._gone"]),
    ("`grid._riesz` is in norms, `_riesz(grid, s)` anywhere", ["grid._riesz"]),
    ("`‖φ‖_p` and `F̂ = envelope ⊗ φ̂_f` are math, `mpnls.linear._Phases.table` code", []),
])
def test_a_name_that_is_gone_is_caught(text, missing):
    defs = definitions()
    assert [name for name in private_names(text) if not resolves(name, defs)] == missing
