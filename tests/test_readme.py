"""Every ```python block of README.md runs as written, and every call in
its "Main entry points" table names a real function with its real
parameters."""
import importlib
import inspect
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
ENTRY_TABLE = TEXT.split("### Main entry points", 1)[1].split("\n\n", 2)[1]
# (module, function, parameter names) of each listed call but `name(...)`
ENTRY_CALLS = [
    (module, name, [p.split("=")[0].strip() for p in args.split(",")])
    for calls, module in re.findall(r"^\| (.*) \| `(qgsynth\.\w+)` \|",
                                    ENTRY_TABLE, re.M)
    for name, args in re.findall(r"`(\w+)\(([^`]*)\)`", calls)
    if args != "..."
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_readme_entry_table_parsed():
    assert len(ENTRY_CALLS) >= 10


@pytest.mark.parametrize("module,name,params", ENTRY_CALLS,
                         ids=[name for _, name, _ in ENTRY_CALLS])
def test_readme_entry_point_signature(module, name, params):
    fn = getattr(importlib.import_module(module), name, None)
    assert fn is not None, f"{module} has no {name}"
    actual = list(inspect.signature(fn).parameters)
    assert actual[:len(params)] == params, f"{name}{inspect.signature(fn)}"
