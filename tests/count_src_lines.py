"""Count the lines of each module of src/mpnls: all of them, as `wc -l` does, and its code lines,
the lines that are neither blank, nor a comment alone, nor part of a docstring.

    python tests/count_src_lines.py [TREE]

TREE is the root of a source checkout, this one by default.  Prints one line per module and
a total.  pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of the module's, each class's and each function's docstring."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.update(range(first.lineno, first.end_lineno + 1))
    return found


def line_counts(path: Path) -> tuple[int, int]:
    """(`wc -l`, code lines) of one module."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    code = sum(1 for number, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docs)
    return text.count("\n"), code


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, nargs="?", default=ROOT, help="root of a checkout")
    tree = parser.parse_args(argv).tree
    total = [0, 0]
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    for path in sorted((tree / "src" / "mpnls").glob("*.py")):
        counts = line_counts(path)
        total = [a + b for a, b in zip(total, counts)]
        print(f"{path.name:<16}{counts[0]:>8}{counts[1]:>8}")
    print(f"{'total':<16}{total[0]:>8}{total[1]:>8}")


if __name__ == "__main__":
    main()
