"""Every report row of the package states a claim that can fail.

A row whose result is the literal ``True`` can never fail, so it is a note
of the report, not a row; only a skipped row (``status=SKIP``) may pass
``True``.  The check parses each module with ``ast``, as
``tests/test_imports.py`` does.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shearbasins"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def rows_that_cannot_fail(source: str) -> list[int]:
    """Line numbers of the ``.add(name, True, ...)`` calls that are not skips."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add"):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        passed = node.args[1] if len(node.args) > 1 else keywords.get("passed")
        skipped = isinstance(keywords.get("status"), ast.Name) and keywords["status"].id == "SKIP"
        if isinstance(passed, ast.Constant) and passed.value is True and not skipped:
            lines.append(node.lineno)
    return lines


def test_the_check_finds_a_row_that_cannot_fail():
    source = (
        "report.add('a', True)\n"
        "report.add('b', True, status=WARN)\n"
        "report.add('c', passed=True, note='x')\n"
        "report.add('d', True, status=SKIP)\n"
        "report.add('e', x <= tol)\n"
        "seen.add(True)\n"
    )
    assert rows_that_cannot_fail(source) == [1, 2, 3]


@pytest.mark.parametrize("module", MODULES)
def test_every_row_can_fail(module):
    assert rows_that_cannot_fail((PACKAGE / module).read_text()) == []
