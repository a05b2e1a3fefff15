"""No module of the package or of its tests imports a name it never uses.

No linter ships with the project's test dependencies, so this stdlib `ast`
walk is the guard: every name bound by an import in a module under
src/qgsynth/ (except the re-exporting __init__.py) or tests/ must be read
somewhere in that module.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "qgsynth").glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_guard_sees_unused_names():
    src = "import os\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(src) == [(1, "os"), (2, "tau")]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
