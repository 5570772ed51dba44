"""Every module-level import of a package module is used in that module.

No linter is assumed, so the check parses each module with ``ast``.
``__init__.py`` is left out: its imports are the package's exports.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shearbasins"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import math\nimport os.path\nfrom typing import Any, Sequence\nx: Sequence = os.path.sep\n"
    assert unused_imports(source) == ["math", "Any"]


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_the_cli_does_not_load_the_process_pool(tmp_path):
    """Parallel rasters fork their workers directly, so neither importing the
    command line, as every command does, nor a raster on two workers loads
    the modules of a process pool."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    probe = ("import os, sys, shearbasins.cli; os.sched_getaffinity = lambda pid: {0, 1}; "
             "assert shearbasins.cli.main(['basin', '--map', 'PROTO_1D', '--res', '24', '24', '--max-iter', '200', "
             "'--workers', '2', '--out', 'basin.pgm']) == 0; "
             "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "basin.pgm").exists()


def pool_imports(source: str) -> list[str]:
    """Every import of ``concurrent`` or ``multiprocessing``, at any nesting level."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] in ("concurrent", "multiprocessing")]


def test_the_scan_finds_a_nested_pool_import():
    source = ("import os\ndef f():\n    from concurrent.futures import ProcessPoolExecutor\n"
              "    import multiprocessing.pool as mp\n    from os import path\n")
    assert pool_imports(source) == ["concurrent.futures", "multiprocessing.pool"]


def test_no_module_imports_a_process_pool():
    found = {path.name: pool_imports(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert {name: names for name, names in found.items() if names} == {}


# ----------------------------------------------------------------------
# the package names the benchmark harness reaches for

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_callable_exists():
    """``bench/tracing.py`` wraps each ``(owner, attr)`` of SPANS by name; a
    missing one breaks traced benchmark runs, whose own tests are slow."""
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, *_ in tracing.SPANS
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_every_package_name_the_gate_imports_exists():
    tree = ast.parse((BENCH / "gate.py").read_text())
    names = [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "shearbasins" for alias in node.names]
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def bench_attribute_reads(source: str) -> set[tuple[str, str]]:
    """Every ``cli.X`` and ``dynamics.X`` that a harness module names."""
    return {(node.value.id, node.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("cli", "dynamics")}


def test_every_cli_and_dynamics_name_the_harness_reads_exists():
    """``bench/*.py`` reach ``cli.X`` and ``dynamics.X`` by attribute, which
    neither the SPANS nor the import check above sees."""
    reads = set().union(*(bench_attribute_reads(path.read_text()) for path in BENCH.glob("*.py")))
    assert {("cli", "VERIFY_CHECK_NAMES"), ("cli", "main"), ("dynamics", "iterate")} <= reads
    modules = {name: importlib.import_module(f"shearbasins.{name}") for name in ("cli", "dynamics")}
    missing = sorted(f"{module}.{attr}" for module, attr in reads if not hasattr(modules[module], attr))
    assert missing == []
