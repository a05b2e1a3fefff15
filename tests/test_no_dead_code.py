"""Every top-level function and class of the package is used somewhere.

A stdlib `ast` walk over src/qgsynth/: each module-level def or class must
be referenced somewhere in the package as a name, as an attribute or in a
`from` import (the package's __init__.py re-exports count, so the public
API passes).  A definition nothing reaches is dead code.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qgsynth"


def unreferenced(sources):
    """Sorted (module, name) of the top-level defs and classes in
    `sources` ({module: source text}) that no source references."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted((module, name) for module, name in defined
                  if name not in used)


def test_guard_sees_unused_definitions():
    sources = {
        "a": "def f():\n    return g()\n\ndef g():\n    pass\n\n"
             "def h():\n    pass\n\nclass K:\n    pass\n",
        "b": "from a import K\n\ndef unused():\n    pass\n\n"
             "def called():\n    pass\n",
        "c": "import b\nb.called()\n",
    }
    assert unreferenced(sources) == [("a", "f"), ("a", "h"), ("b", "unused")]


def test_every_definition_is_referenced():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced(sources) == []
