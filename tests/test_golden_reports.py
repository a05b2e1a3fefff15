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
    "ancilla-grid": "7ffa258af6cb81b3",
    "ancilla-grid-short": "13a4391979c8a872",
    "ancilla-one-input": "a047354f8f0357cd",
    "ancilla-path": "b2954641473875ee",
    "ancilla-path-m0": "9fc3131c82a5cf9e",
    "ancilla-star": "0aff943b63791dcc",
    "ancilla-tree": "e52a82158718641f",
    "ancilla-tree-shallow": "0e9e5e4968f6d2f7",
    "ancilla-tree3": "5067ca6dc105042a",
    "auto-ancilla-expander": "5b31cf716f534f20",
    "auto-ancilla-grid": "2722d0c27def9c82",
    "auto-ancilla-path": "eaa6f658e303e472",
    "auto-ancilla-tree": "6fbe3f82cd5f4a4a",
    "auto-ancilla-tree-shallow": "02d1d839fbcaa82b",
    "auto-disconnected-prefix": "f220c776b7fab359",
    "auto-expander-small": "9d750363e2af618f",
    "auto-m0-path": "1137f1af4e6c9014",
    "auto-no-cascade": "271b6418984fd18c",
    "auto-no-layout-grid": "751a2914bbcf1921",
    "auto-no-layout-path": "fde95a3965ee66d4",
    "auto-noancilla-complete": "f5b4673a11a86cc4",
    "auto-noancilla-general": "53189abc43f8786c",
    "auto-noancilla-grid": "72371fae8c18ea47",
    "auto-noancilla-path": "27fb2875e879321d",
    "auto-noancilla-star": "6af5cd6c3f126b47",
    "auto-noancilla-tree3": "925fa41f4af046d4",
    "noanc-brickwall-auto": "4576e78fc891f534",
    "noanc-brickwall-expander": "30bd9c65c66bbd15",
    "noanc-brickwall-general": "4576e78fc891f534",
    "noanc-brickwall-unknown": "3fd6e61f300b2ca2",
    "noanc-complete-auto": "2cd9c71113865516",
    "noanc-complete-expander": "28bf3ec5ae36f06b",
    "noanc-complete-general": "b96a7cd89a125dd0",
    "noanc-complete-unknown": "3fd6e61f300b2ca2",
    "noanc-cycle-auto": "9218115bf59c5c64",
    "noanc-cycle-expander": "73e7973641fb0127",
    "noanc-cycle-general": "9218115bf59c5c64",
    "noanc-cycle-unknown": "3fd6e61f300b2ca2",
    "noanc-grid-auto": "51936c1798d13c40",
    "noanc-grid-expander": "4ae983d525f2e636",
    "noanc-grid-general": "8550e8554c638afa",
    "noanc-grid-point-auto": "7b3adeef08909de7",
    "noanc-grid-point-general": "82467cdb143598e6",
    "noanc-grid-point-unknown": "3fd6e61f300b2ca2",
    "noanc-grid-unknown": "3fd6e61f300b2ca2",
    "noanc-path-auto": "56876d8f772db0e2",
    "noanc-path-expander": "0a8b027f8ce7dc11",
    "noanc-path-general": "7b9b691b3e8544df",
    "noanc-path-unknown": "3fd6e61f300b2ca2",
    "noanc-point-auto": "2421341411b930dd",
    "noanc-point-general": "d477a1c9e48f7344",
    "noanc-point-unknown": "3fd6e61f300b2ca2",
    "noanc-star-auto": "fba19c0bb7a4d5e3",
    "noanc-star-expander": "d1903435af002c20",
    "noanc-star-general": "a5f1157b39e846b0",
    "noanc-star-unknown": "3fd6e61f300b2ca2",
    "noanc-tree2-auto": "7265f7fd80eb28cf",
    "noanc-tree2-expander": "97c3c6d80a071dae",
    "noanc-tree2-general": "e1de73dd06982e62",
    "noanc-tree2-unknown": "3fd6e61f300b2ca2",
    "noanc-tree3-auto": "c6102d4e511d68c4",
    "noanc-tree3-expander": "0f1630edbe9d7651",
    "noanc-tree3-general": "af54d69a9cccfc1d",
    "noanc-tree3-unknown": "3fd6e61f300b2ca2",
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_golden_report(name):
    assert _digest(REQUESTS[name]) == GOLDEN[name]
