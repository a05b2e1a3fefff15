"""Depth guards for `synth_diag_auto`, `qsp_synthesize` and
`gus_synthesize`: on a fixed sweep of graph families, sizes and ancilla
counts, no circuit may come out deeper than the tables below.  Any change
to the candidates, a backend or the UCG factors that makes one case deeper
fails here, whatever it gains elsewhere; a change that makes a case
shallower may lower its entry.

The diagonal table was recorded before the general split on path prefixes
and the ancilla ladder joined the candidates (12 of its 112 path cases are
shallower since).  The cascade tables were recorded while every UCG still
emitted its middle diagonal as (0, c), and every QSP stage its first
diagonal; a QSP cascade of n >= 5 must stay at most 0.70 of its entry.  The
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
    "path": {2: (5, 5, 5, 5), 5: (133, 133, 133, 133),
             7: (919, 919, 919, 919), 10: (13032, 13032, 4501, 10775)},
    "tree": {2: (4, 4, 4, 4), 5: (116, 116, 116, 116),
             7: (497, 497, 497, 497), 10: (4227, 4227, 4227, 4227)},
    "star": {2: (4, 4, 4, 4), 5: (88, 88, 88, 88),
             7: (376, 376, 376, 376), 10: (3064, 3064, 3064, 3064)},
    "grid2": {2: (4, 4, 4, 4), 5: (122, 122, 122, 122),
              7: (613, 571, 571, 571), 10: (4453, 4217, 4217, 4217)},
    "grid3": {2: (4, 4, 4, 4), 5: (148, 146, 122, 122),
              7: (721, 673, 571, 571), 10: (3769, 5779, 4217, 4217)},
    "grid8": {2: (4, 4, 4, 4), 5: (122, 148, 122, 122),
              7: (571, 424, 613, 571), 10: (3178, 3937, 5379, 4217)},
    "complete": {2: (4, 4, 4, 4), 5: (53, 53, 53, 53),
                 7: (239, 239, 239, 239), 10: (2022, 2022, 2022, 2022)},
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
    "path": {2: (17, 17), 3: (61, 61), 4: (187, 187), 5: (495, 495),
             6: (1164, 1164), 7: (2585, 2585), 8: (4903, 4903)},
    "tree": {2: (17, 17), 3: (60, 60), 4: (200, 200), 5: (496, 496),
             6: (1265, 1265), 7: (2459, 2459), 8: (4959, 4959)},
    "star": {2: (17, 17), 3: (60, 60), 4: (164, 164), 5: (388, 388),
             6: (852, 852), 7: (1796, 1796), 8: (3700, 3700)},
    "grid2": {2: (17, 17), 3: (65, 60), 4: (152, 194), 5: (550, 500),
              6: (983, 1169), 7: (2961, 2590), 8: (5213, 4908)},
    "grid3": {2: (17, 17), 3: (60, 65), 4: (209, 254), 5: (587, 582),
              6: (1069, 1465), 7: (3165, 3108), 8: (4951, 6255)},
    "grid8": {2: (17, 17), 3: (60, 60), 4: (194, 194), 5: (500, 587),
              6: (1169, 1115), 7: (2590, 2161), 8: (4908, 4251)},
    "complete": {2: (17, 17), 3: (45, 45), 4: (102, 102), 5: (233, 233),
                 6: (518, 518), 7: (1117, 1117), 8: (2350, 2350)},
}
GUS_CEILING = {
    "path": {2: (53, 53), 3: (316, 316), 4: (1865, 1865)},
    "tree": {2: (50, 50), 3: (330, 330), 4: (2126, 2126)},
    "star": {2: (50, 50), 3: (330, 330), 4: (1634, 1634)},
    "grid2": {2: (50, 50), 3: (360, 316), 4: (1379, 1966)},
    "grid3": {2: (50, 50), 3: (316, 360), 4: (2082, 2822)},
    "grid8": {2: (50, 50), 3: (316, 316), 4: (1966, 1966)},
    "complete": {2: (50, 50), 3: (216, 216), 4: (884, 884)},
}
TABLES = {"qsp": QSP_CEILING, "gus": GUS_CEILING}
QSP_SHARE = 0.70  # of the ceiling, for n >= 5


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
            cap = QSP_SHARE * ceiling if task == "qsp" and n >= 5 else ceiling
            if depth > cap:
                deeper.append((n, m, ceiling, depth))
    assert deeper == []
