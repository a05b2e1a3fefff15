"""Depth guards for `synth_diag_auto`, `qsp_synthesize` and
`gus_synthesize`: on a fixed sweep of graph families, sizes and ancilla
counts, no circuit may come out deeper than the tables below.  Any change
to the candidates, a backend or the UCG factors that makes one case deeper
fails here, whatever it gains elsewhere; a change that makes a case
shallower may lower its entry.

Every entry is the depth recorded once the templates cancelled their CNOT
pairs at seal (`Template.seal`), and on a path with n = 2 once a path
dispatched like any graph (the walk, not the path split); each was at
most the entry before.  The
depth of a template does not depend on the angles; the inputs are seeded
anyway (generic states and unitaries, whose UCGs emit every factor they
can).
"""
import numpy as np
import pytest

from conftest import random_state, random_unitary
from qgsynth.diag import DiagonalSpec
from qgsynth.diag_ancilla import synth_diag_auto
from qgsynth.graphs import (
    complete_graph,
    grid_graph,
    path_graph,
    star_graph,
    tree_graph,
)
from qgsynth.states import StateSpec, UnitarySpec, gus_synthesize, qsp_synthesize

# a graph of at least k vertices, per family; grids have 2, 3 or 8 rows
FAMILIES = {
    "path": path_graph,
    "tree": lambda k: tree_graph(2, n=k),
    "star": star_graph,
    "grid2": lambda k: grid_graph([2, -(-k // 2)]),
    "grid3": lambda k: grid_graph([3, -(-k // 3)]),
    "grid8": lambda k: grid_graph([8, -(-k // 8)]),
    "complete": complete_graph,
}
NS = (2, 5, 7, 10)


def _ms(n):
    return (0, n, 3 * n, 12 * n)


# family -> n -> the depth ceiling for each m of _ms(n)
CEILING = {
    "path": {2: (4, 4, 4, 4), 5: (116, 116, 116, 116), 7: (556, 556, 556, 556),
             10: (3901, 3901, 3901, 3901)},
    "tree": {2: (4, 4, 4, 4), 5: (116, 116, 116, 116), 7: (459, 459, 459, 459),
             10: (3818, 3818, 3818, 3818)},
    "star": {2: (4, 4, 4, 4), 5: (88, 88, 88, 88), 7: (376, 376, 376, 376),
             10: (3064, 3064, 3064, 3064)},
    "grid2": {2: (4, 4, 4, 4), 5: (100, 116, 116, 116),
              7: (533, 556, 556, 556), 10: (4453, 3901, 3901, 3901)},
    "grid3": {2: (4, 4, 4, 4), 5: (128, 124, 116, 116),
              7: (662, 593, 556, 556), 10: (3389, 5383, 3901, 3901)},
    "grid8": {2: (4, 4, 4, 4), 5: (116, 128, 100, 116),
              7: (556, 371, 533, 556), 10: (2902, 3541, 4983, 3901)},
    "complete": {2: (4, 4, 4, 4), 5: (53, 53, 53, 53), 7: (239, 239, 239, 239),
                 10: (2022, 2022, 2022, 2022)},
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_auto_is_never_deeper_than_the_table(family):
    deeper = []
    for n in NS:
        for m, ceiling in zip(_ms(n), CEILING[family][n]):
            g = FAMILIES[family](n + m)
            rng = np.random.default_rng(n + m)
            spec = DiagonalSpec(n, rng.uniform(0, 2 * np.pi, 1 << n))
            depth = synth_diag_auto(g, spec, m, verify=False)[1]["depth"]
            if depth > ceiling:
                deeper.append((n, m, ceiling, depth))
    assert deeper == []


# family -> n -> the depth ceiling on FAMILIES[family](n + m), m = 0 and n,
# with the graph's other vertices as ancilla
QSP_CEILING = {
    "path": {2: (12, 12), 3: (39, 39), 4: (99, 99), 5: (284, 284),
             6: (641, 641), 7: (1505, 1505), 8: (2725, 2725)},
    "tree": {2: (12, 12), 3: (40, 40), 4: (128, 128), 5: (308, 308),
             6: (782, 782), 7: (1404, 1404), 8: (2761, 2761)},
    "star": {2: (12, 12), 3: (40, 40), 4: (104, 104), 5: (240, 240),
             6: (520, 520), 7: (1088, 1088), 8: (2232, 2232)},
    "grid2": {2: (12, 12), 3: (41, 39), 4: (93, 99), 5: (275, 284),
              6: (548, 641), 7: (1546, 1505), 8: (2923, 2725)},
    "grid3": {2: (12, 12), 3: (39, 41), 4: (101, 133), 5: (309, 303),
              6: (562, 775), 7: (1741, 1661), 8: (2602, 3511)},
    "grid8": {2: (12, 12), 3: (39, 39), 4: (99, 99), 5: (284, 309),
              6: (641, 562), 7: (1505, 1116), 8: (2725, 2273)},
    "complete": {2: (12, 12), 3: (30, 30), 4: (65, 65), 5: (145, 145),
                 6: (318, 318), 7: (680, 680), 8: (1423, 1423)},
}
GUS_CEILING = {
    "path": {2: (40, 40), 3: (242, 242), 4: (1160, 1160)},
    "tree": {2: (40, 40), 3: (252, 252), 4: (1624, 1624)},
    "star": {2: (40, 40), 3: (252, 252), 4: (1244, 1244)},
    "grid2": {2: (40, 40), 3: (267, 242), 4: (1062, 1160)},
    "grid3": {2: (40, 40), 3: (242, 267), 4: (1190, 1716)},
    "grid8": {2: (40, 40), 3: (242, 242), 4: (1160, 1160)},
    "complete": {2: (40, 40), 3: (173, 173), 4: (696, 696)},
}
TABLES = {"qsp": QSP_CEILING, "gus": GUS_CEILING}


def _cascade_depth(task, family, n, m):
    g = FAMILIES[family](n + m)
    rng = np.random.default_rng(n + m)
    if task == "qsp":
        call, spec = qsp_synthesize, StateSpec(n, random_state(rng, n))
    else:
        call, spec = gus_synthesize, UnitarySpec(n, random_unitary(rng, 1 << n))
    return call(g, spec, g.n - n, verify=False)[1]["depth"]


@pytest.mark.parametrize("task", sorted(TABLES))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cascade_is_never_deeper_than_the_table(task, family):
    deeper = []
    for n, ceilings in TABLES[task][family].items():
        for m, ceiling in zip((0, n), ceilings):
            depth = _cascade_depth(task, family, n, m)
            if depth > ceiling:
                deeper.append((n, m, ceiling, depth))
    assert deeper == []
