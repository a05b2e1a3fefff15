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
    return synth_diag_noancilla(g, _spec(g.n, seed), verify=False)


def _auto(g, n, seed):
    return synth_diag_auto(g, _spec(n, seed), g.n - n, verify=False)


def _expander(g, n, seed, cascade):
    return synth_diag_expander_ancilla(g, _spec(n, seed), cascade(g),
                                       verify=False)


def _qsp(g, n, seed):
    return qsp_synthesize(g, _state(n, seed), g.n - n, verify=False)


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
    "ancilla-expander": "6ba57e32069677b7",
    "auto-ancilla-expander": "aeec5c05ed0e15c5",
    "auto-ancilla-grid": "9225b9647193b393",
    "auto-ancilla-path": "7de9a850338a88f0",
    "auto-ancilla-tree": "8929804a2fb6f356",
    "auto-induced-fallback": "98a6f9dcd7ed5934",
    "noanc-complete": "272215dddcd58ce1",
    "noanc-general": "75cc44ed4c5ce9c5",
    "noanc-grid": "f82e7345b8f808e5",
    "noanc-path": "678413f788ce2db3",
    "noanc-star-walk": "0711440b9dfef710",
    "noanc-tree2": "c86bad06e8389bc1",
    "qsp-bfs-relabel": "61a0d338c5cc36df",
    "qsp-path": "bef6ccc8af47b9a2",
    "qsp-star": "82b152e6015905a0",
}

# the backend of the template that ran: for auto, its core backend
BACKENDS = {
    "noanc-path": "general",
    "noanc-grid": "grid",
    "noanc-tree2": "tree2",
    "noanc-star-walk": "star-walk",
    "noanc-complete": "complete",
    "noanc-general": "general",
    "auto-induced-fallback": "general",
    "auto-ancilla-path": "general",
    "auto-ancilla-grid": "complete",
    "auto-ancilla-tree": "tree-walk",
    "auto-ancilla-expander": "complete",
    "ancilla-expander": "ancilla-expander",
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_golden_circuit(name):
    c, report = REQUESTS[name]()
    if name in BACKENDS:
        assert report.get("core_backend", report["backend"]) == BACKENDS[name]
    assert _digest(c) == GOLDEN[name]
