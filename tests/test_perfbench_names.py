"""The names that perfbench traces exist in the package.

`perfbench/child.py` wraps the functions named in its TRACED table from outside the
package, and a name it cannot find is reported as absent: every metric built on it
then reads 0.  This test reads the table without importing or changing perfbench, and
fails when a refactor removes or renames a traced name.  KNOWN_ABSENT holds the names
that were already gone when the test was written; they leave the table in the next
change to the benchmark.
"""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"

KNOWN_ABSENT = {
    "linear.multipoint_denominator", "linear._lambda_indices", "linear._spectral_frames",
    "linear._check_forcing", "linear._resolve_datum_spectral", "linear.duhamel",
    "linear.solve_initial_data", "nonlinear.lipschitz_check", "nonlinear._PicardContext.apply",
    "nonlinear._PicardContext.step", "symbol.eval_symbol", "symbol.propagator_multiplier",
}


def traced() -> dict:
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    return ast.literal_eval(table)


def resolves(home: str, name: str) -> bool:
    """As the tracer looks a name up: a module attribute, or Class.method of a module class."""
    owner_name, _, attr = name.rpartition(".")
    mod = importlib.import_module(f"mpnls.{home}")
    owner = getattr(mod, owner_name, None) if owner_name else mod
    return owner is not None and callable(vars(owner).get(attr))


def test_every_traced_name_is_in_the_package():
    table = traced()
    assert table  # the walk found the table
    absent = {f"{home}.{name}" for home, names in table.items() for name in names
              if not resolves(home, name)}
    assert absent <= KNOWN_ABSENT, sorted(absent - KNOWN_ABSENT)
