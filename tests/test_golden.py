"""Golden circuits: a fixed set of seeded requests must keep emitting the
same gates.

Each digest is the SHA-256 of the circuit's JSON gate list (name, qubits,
angles rounded to 9 decimals), so a refactor that is meant to leave the
output unchanged fails here on the first gate it moves.  Together the
requests cover every no-ancilla strategy, the automatic dispatch, the
ancilla expander variant, and QSP on star and path graphs with and without
the breadth-first relabel.  The auto-ancilla-* requests are named for the
pipelines the dispatch ran there before it compared depths; now the
no-ancilla strategy on vertices 1..n is shallower in each, and
test_golden_reports.py pins the five-stage pipeline through
`synth_diag_ancilla`.  GUS is left out: `scipy.linalg.cossin` output
depends on the LAPACK build.
"""
import hashlib
import json

import numpy as np
import pytest

from qgsynth.circuit import circuit_to_json
from qgsynth.diag import DiagonalSpec, synth_diag_noancilla
from qgsynth.diag_ancilla import synth_diag_auto, synth_diag_expander_ancilla
from qgsynth.graphs import (
    complete_graph,
    expander_cascade,
    explicit_graph,
    grid_graph,
    path_graph,
    star_graph,
    tree_graph,
)
from qgsynth.states import StateSpec, qsp_synthesize


def _digest(c):
    gates = [
        [g["g"], g["q"], [round(x, 9) + 0.0 for x in g.get("p", [])]]
        for g in circuit_to_json(c)["gates"]
    ]
    blob = json.dumps([c.n, c.ancilla, gates], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _spec(n, seed):
    rng = np.random.default_rng(seed)
    return DiagonalSpec(n, rng.uniform(0, 2 * np.pi, size=1 << n))


def _state(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateSpec(n, a / np.linalg.norm(a))


def _noancilla(g, seed):
    return synth_diag_noancilla(g, _spec(g.n, seed), verify=False)[0]


def _auto(g, n, seed):
    return synth_diag_auto(g, _spec(n, seed), g.n - n, verify=False)[0]


def _expander(g, n, seed, cascade):
    return synth_diag_expander_ancilla(g, _spec(n, seed), cascade(g))


def _qsp(g, n, seed):
    return qsp_synthesize(g, _state(n, seed), g.n - n, verify=False)[0]


REQUESTS = {
    "noanc-path": lambda: _noancilla(path_graph(7), 1),
    "noanc-grid": lambda: _noancilla(grid_graph([2, 3]), 2),
    "noanc-tree2": lambda: _noancilla(tree_graph(2, n=7), 3),
    "noanc-star-walk": lambda: _noancilla(star_graph(5), 4),
    "noanc-complete": lambda: _noancilla(complete_graph(5), 5),
    "noanc-general": lambda: _noancilla(
        explicit_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)]), 6),
    "auto-induced-fallback": lambda: _auto(grid_graph([3, 3]), 4, 7),
    "auto-ancilla-path": lambda: _auto(path_graph(4 + 16), 4, 8),
    "auto-ancilla-grid": lambda: _auto(grid_graph([8, 10]), 2, 9),
    "auto-ancilla-tree": lambda: _auto(tree_graph(2, n=31), 4, 10),
    "auto-ancilla-expander": lambda: _auto(complete_graph(8), 3, 11),
    "ancilla-expander": lambda: _expander(
        complete_graph(8), 3, 11, lambda g: expander_cascade(g, 2, 4)),
    "qsp-star": lambda: _qsp(star_graph(4), 4, 12),
    "qsp-path": lambda: _qsp(path_graph(5), 3, 13),
    "qsp-bfs-relabel": lambda: _qsp(
        explicit_graph(4, [(1, 3), (3, 2), (2, 4)]), 3, 14),
}

GOLDEN = {
    "ancilla-expander": "aedfb0602229d24a",
    "auto-ancilla-expander": "ee43059c2d4b0af3",
    "auto-ancilla-grid": "c16b6db89d7697b8",
    "auto-ancilla-path": "adaed654f917fd11",
    "auto-ancilla-tree": "c2e1ba0ec7bd7928",
    "auto-induced-fallback": "b82afbd33c071662",
    "noanc-complete": "272215dddcd58ce1",
    "noanc-general": "7b96777a581b9ffb",
    "noanc-grid": "f82e7345b8f808e5",
    "noanc-path": "26849d596075c01d",
    "noanc-star-walk": "0711440b9dfef710",
    "noanc-tree2": "0130d3deca420598",
    "qsp-bfs-relabel": "575c4c6cc0ff8c68",
    "qsp-path": "69e0d81d4e23554e",
    "qsp-star": "82b152e6015905a0",
}

BACKENDS = {
    "noanc-path": "path",
    "noanc-grid": "grid",
    "noanc-tree2": "tree2",
    "noanc-star-walk": "star-walk",
    "noanc-complete": "complete",
    "noanc-general": "general",
    "auto-induced-fallback": "general",
    "auto-ancilla-path": "path",
    "auto-ancilla-grid": "complete",
    "auto-ancilla-tree": "tree-walk",
    "auto-ancilla-expander": "complete",
    "ancilla-expander": "ancilla-expander",
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_golden_circuit(name):
    c = REQUESTS[name]()
    if name in BACKENDS:
        assert c.meta.get("backend") == BACKENDS[name]
    assert _digest(c) == GOLDEN[name]
