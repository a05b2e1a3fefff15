"""Every ```python block of README.md runs as written, every call in its
"Main entry points" table names a real function with its real parameters,
and its cascade depth/CNOT table gives today's output."""
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import random_state, random_unitary
from qgsynth.graphs import complete_graph, path_graph, star_graph, tree_graph
from qgsynth.states import StateSpec, UnitarySpec, gus_synthesize, qsp_synthesize

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


# the README's cascade table: (task, family, k, depth, CNOTs) of each row,
# the values after its last arrow
CASCADE_ROWS = [
    (task, family, int(k), int(depth.replace(",", "")), int(cx.replace(",", "")))
    for task, family, k, depth, cx in re.findall(
        r"^\| (QSP|GUS) (\w+)\((\d+)\) \| [\d,→ ]*→ ([\d,]+) \| [\d,→ ]*→ ([\d,]+) \|$",
        TEXT, re.M)
]


def test_readme_cascade_table_parsed():
    assert len(CASCADE_ROWS) >= 7


@pytest.mark.parametrize("task,family,k,depth,cx", CASCADE_ROWS,
                         ids=[f"{t}-{f}{k}" for t, f, k, _, _ in CASCADE_ROWS])
def test_readme_cascade_table_is_today(task, family, k, depth, cx):
    # generic inputs with m = 0: depth and CNOTs depend only on the
    # template, so any seed gives the row
    make = {"path": path_graph, "star": star_graph, "complete": complete_graph,
            "tree": lambda k: tree_graph(2, n=k)}[family]
    rng = np.random.default_rng(k)
    if task == "QSP":
        spec = StateSpec(k, random_state(rng, k))
        _, report = qsp_synthesize(make(k), spec, 0, verify=False)
    else:
        spec = UnitarySpec(k, random_unitary(rng, 1 << k))
        _, report = gus_synthesize(make(k), spec, 0, verify=False)
    assert (report["depth"], report["two_qubit"]) == (depth, cx)
