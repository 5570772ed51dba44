"""``os.fork``, ``os.sched_getaffinity`` and ``os.cpu_count`` are read only by
``dynamics._fork_map``.

``_fork_map`` is the one place that decides how many workers run, which items
each worker takes and how the results come back, for the raster's rows and
for ``verify``'s orbit pairs alike, so a second dealer cannot drift from the
first.  It is called twice: by ``sample_slice`` for a raster's rows and by
``run_orbit_jobs`` for every orbit job of ``verify``, so a check that forks
its own workers again fails here.  The checks parse each module with
``ast``, as ``tests/test_one_petal_premise.py`` does.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shearbasins"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
DEALER = {"dynamics.py": "_fork_map"}
NAMES = {"fork", "sched_getaffinity", "cpu_count"}


def reads_outside(source: str, function: str | None = None) -> list[int]:
    """Line numbers that read one of ``NAMES`` of ``os`` (as an attribute, an
    imported name or a ``getattr``/``hasattr`` string) outside the top-level
    function ``function``."""
    tree = ast.parse(source)
    imported = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "os" for a in node.names if a.name in NAMES}
    allowed = {id(n) for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function
               for n in ast.walk(node)}
    return [n.lineno for n in ast.walk(tree) if id(n) not in allowed and (
        isinstance(n, ast.Attribute) and n.attr in NAMES
        or isinstance(n, ast.Name) and n.id in imported
        or isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in ("getattr", "hasattr")
        and any(isinstance(arg, ast.Constant) and arg.value in NAMES for arg in n.args))]


def test_the_check_finds_a_read_outside_the_dealer():
    source = (
        "import os\n"
        "from os import cpu_count as cpus\n"
        "def _fork_map(fn, items, limit):\n"
        "    return os.fork() if hasattr(os, 'fork') else len(os.sched_getaffinity(0))\n"
        "def other():\n"
        "    return os.fork()\n"
        "USABLE = os.sched_getaffinity(0)\n"
        "FORKS = hasattr(os, 'fork')\n"
        "N = cpus()\n"
    )
    assert sorted(reads_outside(source, "_fork_map")) == [6, 7, 8, 9]
    assert sorted(reads_outside(source)) == [4, 4, 4, 6, 7, 8, 9]


@pytest.mark.parametrize("module", MODULES)
def test_only_the_fork_helper_reads_the_process_calls(module):
    assert reads_outside((PACKAGE / module).read_text(), DEALER.get(module)) == []


def fork_map_callers(source: str) -> list[str | None]:
    """The top-level function around each call of ``_fork_map``, by name or
    as an attribute, in source order; None for a call outside any function."""
    tree = ast.parse(source)
    owner = {id(n): node.name for node in tree.body if isinstance(node, ast.FunctionDef) for n in ast.walk(node)}
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and "_fork_map" in (
        getattr(n.func, "id", None), getattr(n.func, "attr", None))]
    return [owner.get(id(n)) for n in sorted(calls, key=lambda n: (n.lineno, n.col_offset))]


def test_the_check_finds_each_call_of_the_fork_helper():
    source = (
        "from . import dynamics\n"
        "def sample_slice(rows):\n"
        "    return _fork_map(len, rows, 2)\n"
        "def check(word):\n"
        "    def pairs(items):\n"
        "        return dynamics._fork_map(word, items, len(items))\n"
        "    return pairs\n"
        "RESULTS = _fork_map(len, [], 1)\n"
    )
    assert fork_map_callers(source) == ["sample_slice", "check", None]


def test_the_raster_and_the_orbit_job_runner_are_the_only_callers():
    callers = {module: fork_map_callers((PACKAGE / module).read_text()) for module in MODULES}
    assert {module: found for module, found in callers.items() if found} == {
        "dynamics.py": ["run_orbit_jobs", "sample_slice"]}
