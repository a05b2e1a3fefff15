"""Every function that perfbench/tracer.py wraps exists in the package.

The traced benchmark run looks up each (module, attribute path) of the
tracer's TRACED list with getattr, so a rename there breaks the run; this
test reads the list from the tracer's source, without running it, and
resolves every name, so the rename fails here first.
"""
import ast
import importlib
from functools import reduce
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names():
    """The tracer's TRACED list, read from its source."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED list in the tracer")


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    for module, path in names:
        obj = reduce(getattr, path.split("."),
                     importlib.import_module(f"qgsynth.{module}"))
        assert callable(obj), (module, path)
