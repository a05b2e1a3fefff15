"""Golden reports: every diagonal entry point must keep emitting the same
circuit and the same report, key order included.

Each digest is the SHA-256 of the circuit's JSON gate list (angles rounded
to 9 decimals, as in test_golden.py) plus the report's items in order,
without `residual` (a float that moves with the platform's rounding).  A
request that raises pins the error type and message instead.  The requests
run `synth_diag_noancilla` with every strategy on one graph of each family,
and `synth_diag_auto` and `synth_diag_ancilla` on every backend and
fallback they reach.
"""
import hashlib
import json

import numpy as np
import pytest

from qgsynth import diag_ancilla
from qgsynth.circuit import circuit_to_json
from qgsynth.diag import DiagonalSpec, synth_diag_noancilla
from qgsynth.diag_ancilla import (
    InsufficientAncilla,
    synth_diag_ancilla,
    synth_diag_auto,
)
from qgsynth.graphs import (
    brickwall_graph,
    complete_graph,
    explicit_graph,
    grid_graph,
    path_graph,
    star_graph,
    tree_graph,
)

GRAPHS = {
    "path": lambda: path_graph(6),
    "star": lambda: star_graph(5),
    "tree2": lambda: tree_graph(2, n=7),
    "tree3": lambda: tree_graph(3, n=7),
    "complete": lambda: complete_graph(5),
    "cycle": lambda: explicit_graph(6, [(v, v % 6 + 1) for v in range(1, 7)]),
    "grid": lambda: grid_graph([2, 3]),
    "brickwall": lambda: brickwall_graph(1, 1, 3, 3),
    "point": lambda: path_graph(1),
    "grid-point": lambda: grid_graph([1]),
}
STRATEGIES = ["auto", "expander", "general", "unknown"]


def _spec(n, seed):
    rng = np.random.default_rng(seed)
    return DiagonalSpec(n, rng.uniform(0, 2 * np.pi, size=1 << n))


def _no_layout(*args):
    raise InsufficientAncilla("forced")


def _auto(make, n, seed, patch=None):
    def run():
        g = make()
        with pytest.MonkeyPatch.context() as mp:
            if patch:
                mp.setattr(diag_ancilla, *patch)
            return synth_diag_auto(g, _spec(n, seed), g.n - n)
    return run


def _ancilla(make, n, seed):
    def run():
        g = make()
        return synth_diag_ancilla(g, _spec(n, seed), g.n - n)
    return run


def _noancilla(make, strategy, seed):
    def run():
        g = make()
        return synth_diag_noancilla(g, _spec(g.n, seed), strategy=strategy)
    return run


# the expander strategy on the one-vertex graphs is left out: vertex
# expansion is undefined below three vertices
REQUESTS = {
    f"noanc-{family}-{strategy}": _noancilla(make, strategy, seed)
    for seed, (family, make) in enumerate(GRAPHS.items())
    for strategy in STRATEGIES
    if strategy != "expander" or not family.endswith("point")
}
REQUESTS.update({
    "auto-ancilla-path": _auto(lambda: path_graph(12), 3, 20),
    "auto-noancilla-path": _auto(lambda: path_graph(8), 3, 21),
    "auto-m0-path": _auto(lambda: path_graph(5), 5, 22),
    "auto-ancilla-grid": _auto(lambda: grid_graph([8, 10]), 2, 23),
    "auto-noancilla-grid": _auto(lambda: grid_graph([3, 3]), 4, 24),
    "auto-ancilla-tree": _auto(lambda: tree_graph(2, n=31), 4, 25),
    "auto-ancilla-tree-shallow": _auto(lambda: tree_graph(2, n=12), 3, 26),
    "auto-noancilla-tree3": _auto(lambda: tree_graph(3, n=13), 3, 27),
    "auto-noancilla-star": _auto(lambda: star_graph(7), 3, 28),
    "auto-ancilla-expander": _auto(lambda: complete_graph(8), 3, 29),
    "auto-expander-small": _auto(lambda: complete_graph(4), 2, 30),
    "auto-noancilla-complete": _auto(lambda: complete_graph(5), 3, 31),
    "auto-no-cascade": _auto(lambda: complete_graph(25), 3, 32),
    "auto-noancilla-general": _auto(
        lambda: explicit_graph(8, [(v, v % 8 + 1) for v in range(1, 9)]), 4, 33),
    "auto-disconnected-prefix": _auto(lambda: brickwall_graph(1, 1, 3, 3), 4, 34),
    "auto-no-layout-path": _auto(lambda: path_graph(12), 3, 35,
                                 ("build_layout", _no_layout)),
    "auto-no-layout-grid": _auto(lambda: grid_graph([8, 10]), 2, 36,
                                 ("build_layout", _no_layout)),
    "ancilla-path": _ancilla(lambda: path_graph(12), 3, 40),
    "ancilla-path-m0": _ancilla(lambda: path_graph(5), 5, 41),
    "ancilla-grid": _ancilla(lambda: grid_graph([8, 10]), 2, 42),
    "ancilla-grid-short": _ancilla(lambda: grid_graph([3, 3]), 4, 43),
    "ancilla-tree": _ancilla(lambda: tree_graph(2, n=31), 4, 44),
    "ancilla-tree-shallow": _ancilla(lambda: tree_graph(2, n=12), 3, 45),
    "ancilla-tree3": _ancilla(lambda: tree_graph(3, n=13), 3, 46),
    "ancilla-star": _ancilla(lambda: star_graph(7), 3, 47),
    "ancilla-complete": _ancilla(lambda: complete_graph(8), 3, 48),
    "ancilla-one-input": _ancilla(lambda: path_graph(6), 1, 49),
})


def _digest(run):
    try:
        c, report = run()
    except Exception as exc:  # the error is the pinned outcome
        blob = json.dumps([type(exc).__name__, str(exc)])
    else:
        gates = [
            [g["g"], g["q"], [round(x, 9) + 0.0 for x in g.get("p", [])]]
            for g in circuit_to_json(c)["gates"]
        ]
        items = [[k, v] for k, v in report.items() if k != "residual"]
        blob = json.dumps([c.n, c.ancilla, gates, items],
                          separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


GOLDEN = {
    "ancilla-complete": "1e2f23cfc3bb21c6",
    "ancilla-grid": "f54ca1d14377dfd3",
    "ancilla-grid-short": "13a4391979c8a872",
    "ancilla-one-input": "a047354f8f0357cd",
    "ancilla-path": "0f96f8cecb3fd142",
    "ancilla-path-m0": "9fc3131c82a5cf9e",
    "ancilla-star": "0aff943b63791dcc",
    "ancilla-tree": "e4ca421ea1da07d2",
    "ancilla-tree-shallow": "91fa61c3b5b5ad8e",
    "ancilla-tree3": "5067ca6dc105042a",
    "auto-ancilla-expander": "765b1d0bcba90f78",
    "auto-ancilla-grid": "f3ca9498e7673dee",
    "auto-ancilla-path": "a36a316d295ab19f",
    "auto-ancilla-tree": "8da71add6a21ebc9",
    "auto-ancilla-tree-shallow": "052baee34a160937",
    "auto-disconnected-prefix": "f220c776b7fab359",
    "auto-expander-small": "8eac3362bea74642",
    "auto-m0-path": "afdbb2bb7295da96",
    "auto-no-cascade": "d2333e889f14edd5",
    "auto-no-layout-grid": "057e30c8ddedd8a7",
    "auto-no-layout-path": "c71b89ff5329bafb",
    "auto-noancilla-complete": "8eb7ca4254a1d882",
    "auto-noancilla-general": "3a0d0d809755ea70",
    "auto-noancilla-grid": "08eb15a43ab9af56",
    "auto-noancilla-path": "71576bac96e6c380",
    "auto-noancilla-star": "9c685aa57d213fd1",
    "auto-noancilla-tree3": "235d46354715aa3b",
    "noanc-brickwall-auto": "1bac3bf38f9ede7d",
    "noanc-brickwall-expander": "7cc2f3061b4470ec",
    "noanc-brickwall-general": "04f0ec846df34497",
    "noanc-brickwall-unknown": "3fd6e61f300b2ca2",
    "noanc-complete-auto": "7ab5f03471f19bed",
    "noanc-complete-expander": "4a56926f107d4249",
    "noanc-complete-general": "3b4fed705856080b",
    "noanc-complete-unknown": "3fd6e61f300b2ca2",
    "noanc-cycle-auto": "5fdeb4be51c5be57",
    "noanc-cycle-expander": "b7175023506a0190",
    "noanc-cycle-general": "fa522b504a128850",
    "noanc-cycle-unknown": "3fd6e61f300b2ca2",
    "noanc-grid-auto": "bbb60accf725d7e6",
    "noanc-grid-expander": "4a0945c3b5dfa498",
    "noanc-grid-general": "95ec36474ce25873",
    "noanc-grid-point-auto": "6dd3ad7e834d5823",
    "noanc-grid-point-general": "82467cdb143598e6",
    "noanc-grid-point-unknown": "3fd6e61f300b2ca2",
    "noanc-grid-unknown": "3fd6e61f300b2ca2",
    "noanc-path-auto": "dd67a66c12eaa736",
    "noanc-path-expander": "5ab98eafd9374a3b",
    "noanc-path-general": "53f53fe9c7f76321",
    "noanc-path-unknown": "3fd6e61f300b2ca2",
    "noanc-point-auto": "41c30e9be2a566d2",
    "noanc-point-general": "d477a1c9e48f7344",
    "noanc-point-unknown": "3fd6e61f300b2ca2",
    "noanc-star-auto": "a3b738fcfc97ef90",
    "noanc-star-expander": "8c4f15f359c46bf9",
    "noanc-star-general": "d01f23b322cafdc6",
    "noanc-star-unknown": "3fd6e61f300b2ca2",
    "noanc-tree2-auto": "1c8aae7e3df4e447",
    "noanc-tree2-expander": "d812969687a979d1",
    "noanc-tree2-general": "1c565eaec7c4ffa7",
    "noanc-tree2-unknown": "3fd6e61f300b2ca2",
    "noanc-tree3-auto": "b539db176b1f70a3",
    "noanc-tree3-expander": "8c6d34ef55fad003",
    "noanc-tree3-general": "b5ad694dc994585a",
    "noanc-tree3-unknown": "3fd6e61f300b2ca2",
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_golden_report(name):
    assert _digest(REQUESTS[name]) == GOLDEN[name]
