"""Every name the package exports has a reader besides the unit tests.

A public name counts as read when README.md or the acceptance suite names it,
or when `src/mpnls` uses it outside `__init__.py` and outside its own
definition, from code that is itself read.  A name only the unit tests read
is dead weight and should go.
"""

import ast
import inspect
import re
from collections import defaultdict
from pathlib import Path

import mpnls

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mpnls"

# Names kept with no reader above, each for a stated reason.
ALLOWED = {
    "eval_nonlinearity": "the paper's nonlinearity F, pinned by the contraction tests",
    "picard_step": "the paper's solution map Φ, pinned by the contraction tests",
    "integral_residual": "the paper's integral-equation residual d(u, Φ(u))",
}


def exported_names() -> list[str]:
    """Public names bound in `mpnls`, less submodules and the error classes."""
    return sorted(name for name, obj in vars(mpnls).items()
                  if (not name.startswith("_") or name == "__version__")
                  and not inspect.ismodule(obj)
                  and not (isinstance(obj, type) and issubclass(obj, Exception)))


def src_readers() -> dict[str, set[str]]:
    """name -> the top-level definitions of src modules other than `__init__.py`
    that read it, a definition not counting as its own reader.  Statements that
    define nothing read as their module."""
    readers = defaultdict(set)
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(node, "name", f"module {path.stem}")
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id != owner:
                    readers[sub.id].add(owner)
    return readers


def test_every_export_has_a_reader():
    # A reader counts when it is no export itself (the CLI, module tables, private
    # helpers) or an export that is read in turn; so an export read only by another
    # unread export stays unread.
    exports = set(exported_names())
    readers = src_readers()
    docs = (ROOT / "README.md").read_text(encoding="utf-8") + (
        ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    live = set(ALLOWED) | {name for name in exports
                           if re.search(rf"\b{re.escape(name)}\b", docs)}
    grown = True
    while grown:
        fresh = {name for name in exports - live
                 if any(r not in exports or r in live for r in readers[name])}
        live |= fresh
        grown = bool(fresh)
    unread = sorted(exports - live)
    assert unread == [], f"exported but read only by unit tests: {unread}"


def test_allowlist_names_are_exported():
    assert set(ALLOWED) <= set(exported_names())
