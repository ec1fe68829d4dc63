"""No test module binds one top-level name twice.

A second `def test_x` in a module replaces the first, and pytest collects only the
second, so the first never runs and nothing says so.  The same holds for a helper, a
fixture or a constant bound twice.  This reads every module under tests/ by AST."""

import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def top_level_names(tree: ast.Module) -> list[str]:
    """Every name that a statement of the module body binds anew: definitions, assignment
    targets and imports.  An augmented assignment updates its name, so it is not counted."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(sub.id for target in targets for sub in ast.walk(target)
                         if isinstance(sub, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.extend((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_top_level_name_is_bound_twice(path):
    counts = Counter(top_level_names(ast.parse(path.read_text(encoding="utf-8"))))
    assert [name for name, k in counts.items() if k > 1] == []


def test_a_shadowed_test_is_caught():
    tree = ast.parse("import os\ndef test_a(): pass\nX = [1]\nX += [2]\ndef test_a(): pass\n")
    assert Counter(top_level_names(tree)) == {"os": 1, "test_a": 2, "X": 1}
