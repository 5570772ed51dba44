"""``exec`` is called only by ``maps._compile``, and only ``maps._ClosedForm``
defines ``__call__``, ``eval_batch`` and ``jet`` in ``maps``.

``_compile`` is the one place where a map's closed form becomes code: the
words' factors from ``_FORMULAS`` and the prototypes from ``_PROTOTYPES``
alike, as one scalar step, one batch step and one ``advance`` loop.  A map
class with an evaluator of its own would be a second implementation of its
closed form, free to drift from the first in its float operations.  The
checks parse each module with ``ast``, as
``tests/test_one_fork_helper.py`` does.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shearbasins"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
COMPILER = {"maps.py": "_compile"}
BASE = "_ClosedForm"
EVALUATORS = {"__call__", "eval_batch", "jet"}


def exec_calls_outside(source: str, function: str | None = None) -> list[int]:
    """Line numbers of the calls of ``exec``, by name or as an attribute
    (``builtins.exec``), outside the top-level function ``function``."""
    tree = ast.parse(source)
    allowed = {id(n) for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function
               for n in ast.walk(node)}
    return [n.lineno for n in ast.walk(tree) if id(n) not in allowed and isinstance(n, ast.Call)
            and "exec" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))]


def evaluators_by_class(source: str) -> dict[str, list[str]]:
    """{class: the names of ``EVALUATORS`` it defines, by ``def`` or by
    assignment} for every class in the module that defines one."""
    found = {}
    for cls in (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ClassDef)):
        names = [node.name for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        names += [t.id for node in cls.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                  for t in getattr(node, "targets", [getattr(node, "target", None)]) if isinstance(t, ast.Name)]
        if EVALUATORS & set(names):
            found[cls.name] = sorted(EVALUATORS & set(names))
    return found


def test_the_check_finds_an_exec_outside_the_compiler():
    source = (
        "import builtins\n"
        "def _compile(source):\n"
        "    exec(source, {})\n"
        "def other(source):\n"
        "    builtins.exec(source)\n"
        "    return exec\n"
        "exec('x = 1')\n"
    )
    assert sorted(exec_calls_outside(source, "_compile")) == [5, 7]
    assert sorted(exec_calls_outside(source)) == [3, 5, 7]


@pytest.mark.parametrize("module", MODULES)
def test_only_the_compiler_calls_exec(module):
    assert exec_calls_outside((PACKAGE / module).read_text(), COMPILER.get(module)) == []


def test_the_check_finds_each_evaluator_of_a_class():
    source = (
        "class _ClosedForm:\n"
        "    def __call__(self, p): ...\n"
        "    def eval_batch(self, coords): ...\n"
        "    def jet(self, order): ...\n"
        "class Prototype(_ClosedForm):\n"
        "    kind: str\n"
        "    def __call__(self, p): ...\n"
        "    jet = _ClosedForm.jet\n"
        "class Params:\n"
        "    a: float\n"
        "    eval_batch: object = None\n"
    )
    assert evaluators_by_class(source) == {
        "_ClosedForm": ["__call__", "eval_batch", "jet"], "Prototype": ["__call__", "jet"], "Params": ["eval_batch"]}


def test_only_the_shared_base_defines_an_evaluator_in_maps():
    assert evaluators_by_class((PACKAGE / "maps.py").read_text()) == {BASE: sorted(EVALUATORS)}
