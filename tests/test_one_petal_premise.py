"""``DEGENERATE_TOL`` is read only by ``directions`` and ``dynamics.petal_premises``.

``directions`` holds the degeneracy rule of the direction record, and every
petal check of the package reads the premise that a + b is not 0 from
``petal_premises``, so no second premise can drift from the first.  The
check parses each module with ``ast``, as ``tests/test_report_rows.py``
does.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shearbasins"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "directions.py")
PREMISE = {"dynamics.py": "petal_premises"}


def reads_outside(source: str, function: str | None = None) -> list[int]:
    """Line numbers that read ``DEGENERATE_TOL`` (by name, alias or attribute)
    outside the top-level function ``function``."""
    tree = ast.parse(source)
    names = {"DEGENERATE_TOL"} | {a.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                                  for a in node.names if a.name == "DEGENERATE_TOL" and a.asname}
    allowed = {id(n) for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function
               for n in ast.walk(node)}
    return [n.lineno for n in ast.walk(tree) if id(n) not in allowed and (
        isinstance(n, ast.Name) and n.id in names or isinstance(n, ast.Attribute) and n.attr == "DEGENERATE_TOL")]


def test_the_check_finds_a_read_outside_the_premise():
    source = (
        "from .directions import DEGENERATE_TOL as TOL\n"
        "def petal_premises(total):\n"
        "    return abs(total) <= DEGENERATE_TOL\n"
        "def other(total):\n"
        "    return abs(total) <= DEGENERATE_TOL\n"
        "LIMIT = dirs_mod.DEGENERATE_TOL\n"
        "WIDE = 2 * TOL\n"
    )
    assert sorted(reads_outside(source, "petal_premises")) == [5, 6, 7]
    assert sorted(reads_outside(source)) == [3, 5, 6, 7]


@pytest.mark.parametrize("module", MODULES)
def test_only_the_petal_premise_reads_the_degeneracy_tolerance(module):
    assert reads_outside((PACKAGE / module).read_text(), PREMISE.get(module)) == []
