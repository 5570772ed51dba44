"""Every module-level import of a package module is used in that module.

No linter is assumed, so the check parses each module with ``ast``.
``__init__.py`` is left out: its imports are the package's exports.
"""

import ast
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
