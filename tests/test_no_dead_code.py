"""Every top-level function and class of the package, and every method of
its classes, is used somewhere.

A stdlib `ast` walk over src/qgsynth/: each module-level def or class must
be referenced somewhere in the package as a name, as an attribute or in a
`from` import (the package's __init__.py re-exports count, so the public
API passes).  Each method (a def in a module-level class, a property
included) must be referenced as an attribute, as methods are reached;
dunders are exempt, as Python calls them.  A definition nothing reaches is
dead code.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qgsynth"


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def unreferenced(sources):
    """Sorted (module, name) of the top-level defs and classes in
    `sources` ({module: source text}), and (module, "Class.method") of
    their classes' methods but dunders, that no source references."""
    defined, methods, used, attrs = [], [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                methods += [(module, node.name, f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef)
                            and not _dunder(f.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted([(module, name) for module, name in defined
                   if name not in used | attrs]
                  + [(module, f"{cls}.{name}") for module, cls, name in methods
                     if name not in attrs])


def test_guard_sees_unused_definitions():
    sources = {
        "a": "def f():\n    return g()\n\ndef g():\n    pass\n\n"
             "def h():\n    pass\n\nclass K:\n"
             "    def __init__(self):\n        self.used()\n\n"
             "    def used(self):\n        pass\n\n"
             "    def dead(self):\n        pass\n\n"
             "    def named(self):\n        pass\n\nnamed = 1\n",
        "b": "from a import K\n\ndef unused():\n    pass\n\n"
             "def called():\n    pass\n",
        "c": "import b\nb.called()\n",
    }
    assert unreferenced(sources) == [("a", "K.dead"), ("a", "K.named"),
                                     ("a", "f"), ("a", "h"), ("b", "unused")]


def test_every_definition_is_referenced():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced(sources) == []
