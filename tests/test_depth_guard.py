"""Depth guard for `synth_diag_auto`: on a fixed sweep of graph families,
sizes and ancilla counts, no diagonal may come out deeper than the table
below.  Any change to the candidates or to a backend that makes one case
deeper fails here, whatever it gains elsewhere; a change that makes a case
shallower may lower its entry.

The table was recorded before the general split on path prefixes and the
ancilla ladder joined the candidates (12 of its 112 path cases are
shallower since).  The depth of a template does not depend on the angles;
the spec is seeded anyway.
"""
import numpy as np
import pytest

from qgsynth.diag import DiagonalSpec
from qgsynth.diag_ancilla import synth_diag_auto
from qgsynth.graphs import (
    complete_graph,
    grid_graph,
    path_graph,
    star_graph,
    tree_graph,
)

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
