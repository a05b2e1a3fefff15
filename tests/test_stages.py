"""Every pipeline marks its stages on the one circuit it emits, and the
report's stage table adds up exactly to the report's totals."""
import numpy as np
import pytest

from conftest import random_state, random_unitary
from qgsynth.diag import DiagonalSpec, synth_diag_noancilla
from qgsynth.diag_ancilla import (
    synth_diag_ancilla,
    synth_diag_auto,
    synth_diag_expander_ancilla,
)
from qgsynth.graphs import (
    complete_graph,
    expander_cascade,
    explicit_graph,
    path_graph,
    star_graph,
)
from qgsynth.states import StateSpec, UnitarySpec, gus_synthesize, qsp_synthesize

ANCILLA = ["suffix-copy", "gray-init", "prefix-copy", "gray-cycle", "inverse"]


def diag(n):
    return DiagonalSpec(n, np.random.default_rng(n).uniform(0, 6, 1 << n))


def state(n):
    return StateSpec(n, random_state(np.random.default_rng(n), n))


def _expander(g, spec):
    return synth_diag_expander_ancilla(g, spec, expander_cascade(g, 1, 2))[1]


def noancilla_names(names):
    return names[0] == "gen_1" and names[-2:] == ["reset", "lambda_rc"]


CASES = {
    "noancilla": (lambda: synth_diag_noancilla(path_graph(6), diag(6))[1],
                  noancilla_names),
    "ancilla": (lambda: synth_diag_ancilla(path_graph(12), diag(3), 9)[1],
                ANCILLA.__eq__),
    # m < 3n on a path: the no-ancilla general split on vertices 1..n
    "auto": (lambda: synth_diag_auto(path_graph(10), diag(6), 4)[1],
             noancilla_names),
    "expander": (lambda: _expander(complete_graph(6), diag(3)),
                 ["gray-init", "gray-cycle", "inverse"].__eq__),
    "qsp": (lambda: qsp_synthesize(star_graph(4), state(3), 1)[1],
            ["ucg_1", "ucg_2", "ucg_3"].__eq__),
    # BFS order 1, 3, 2, 4: the cascade runs relabelled, then swaps back
    "qsp-relabel": (lambda: qsp_synthesize(
        explicit_graph(4, [(1, 3), (3, 2), (2, 4)]), state(2), 2)[1],
        ["ucg_1", "ucg_2", "relabel"].__eq__),
    "gus": (lambda: gus_synthesize(path_graph(3), UnitarySpec(
        2, random_unitary(np.random.default_rng(2), 4)), 1)[1],
        lambda names: names == [f"ucg_{k}" for k in range(1, len(names) + 1)]),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_stage_table_adds_up_to_the_report(case):
    synth, names_ok = case
    report = synth()
    stages = report["stages"]
    assert stages and names_ok([s["stage"] for s in stages])
    for col in ("depth", "size", "two_qubit"):
        assert sum(s[col] for s in stages) == report[col]
    if "ucg_count" in report:
        assert len(stages) == report["ucg_count"]
