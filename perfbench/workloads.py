"""Seeded request lists for the three workloads.

A request is one call of a public entry point (`synth_diag_auto`,
`qsp_synthesize` or `gus_synthesize`) on a prebuilt graph and input.
Everything random -- angles, states, unitaries and, for `breadth-small`,
the graph shapes and ancilla counts -- is drawn from the workload seed, in a
fixed order, so a seed always gives the same requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import unitary_group

from qgsynth import bounds, graphs
from qgsynth.diag import DiagonalSpec
from qgsynth.states import StateSpec, UnitarySpec


@dataclass
class Request:
    task: str
    kind: str  # graph family, used for failure accounting
    graph_label: str
    graph: graphs.ConstraintGraph
    n: int
    m: int
    verify: bool
    spec: object  # DiagonalSpec / StateSpec / UnitarySpec handed to qgsynth
    target: np.ndarray  # the benchmark's own copy, for the oracle
    bound: float  # depth_lower_bound(...)["max"]
    # diag or GUS on a graph whose vertices 1..n induce a disconnected
    # subgraph: qgsynth refuses these with DisconnectedGraph (ROADMAP item 5)
    refusable: bool


def _graph(kind, *args):
    if kind == "path":
        return graphs.path_graph(*args), f"path({args[0]})"
    if kind == "grid":
        return graphs.grid_graph(list(args)), "grid(" + "x".join(map(str, args)) + ")"
    if kind == "tree":
        return graphs.tree_graph(2, n=args[0]), f"tree2({args[0]})"
    if kind == "star":
        return graphs.star_graph(*args), f"star({args[0]})"
    if kind == "complete":
        return graphs.complete_graph(*args), f"complete({args[0]})"
    if kind == "brickwall":
        return graphs.brickwall_graph(*args), "brickwall(" + ",".join(map(str, args)) + ")"
    raise ValueError(kind)


def _random_connected(rng, size):
    """Random spanning tree on shuffled labels plus a few extra edges, so
    the vertices 1..n of a prefix are often not connected to each other."""
    labels = [int(v) + 1 for v in rng.permutation(size)]
    pairs = [(labels[i], labels[int(rng.integers(i))]) for i in range(1, size)]
    for _ in range(int(rng.integers(size // 2 + 1))):
        pairs.append(tuple(int(v) + 1 for v in rng.choice(size, 2, replace=False)))
    edges = {(min(u, v), max(u, v)) for u, v in pairs}
    return graphs.explicit_graph(size, sorted(edges)), f"random({size},{len(edges)}e)"


def _prefix_connected(edges, n):
    """Whether vertices 1..n induce a connected subgraph, from the edge list."""
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        if u <= n and v <= n:
            adj[u].append(v)
            adj[v].append(u)
    seen, todo = {1}, [1]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def _request(rng, task, kind, g, label, n, verify):
    m = g.n - n
    if task == "diag":
        target = rng.uniform(0.0, 2 * math.pi, 1 << n)
        spec = DiagonalSpec(n, target)
    elif task == "qsp":
        target = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        target /= np.linalg.norm(target)
        spec = StateSpec(n, target)
    else:
        target = unitary_group.rvs(1 << n, random_state=rng)
        spec = UnitarySpec(n, target)
    bound = bounds.depth_lower_bound(g, task, n, m)["max"]
    refusable = task != "qsp" and not _prefix_connected(g.edges, n)
    return Request(task, kind, label, g, n, m, verify, spec, np.array(target), bound,
                   refusable)


# (task, n, m, graph kind, graph args); graph args give n + m vertices
VERIFY_EXACT = [
    ("diag", 9, 0, "path", (9,)),
    ("diag", 9, 0, "grid", (3, 3)),
    ("diag", 9, 0, "tree", (9,)),
    ("diag", 9, 0, "star", (9,)),
    ("diag", 9, 0, "complete", (9,)),
    ("diag", 8, 48, "path", (56,)),
    ("diag", 8, 288, "grid", (8, 37)),
    ("diag", 9, 27, "tree", (36,)),
    ("diag", 9, 9, "complete", (18,)),
    ("qsp", 9, 0, "star", (9,)),
    ("qsp", 9, 0, "path", (9,)),
    ("qsp", 6, 6, "path", (12,)),
    ("gus", 4, 0, "path", (4,)),
]

COMPILE_LARGE = [
    ("diag", 14, 0, "path", (14,)),
    ("diag", 14, 0, "grid", (2, 7)),
    ("diag", 14, 384, "path", (398,)),
    ("diag", 14, 42, "tree", (56,)),
    ("diag", 12, 432, "grid", (12, 37)),
    ("diag", 12, 12, "complete", (24,)),
    ("qsp", 12, 0, "star", (12,)),
    ("qsp", 12, 0, "path", (12,)),
]


def _fixed(rows, verify):
    def build(rng):
        reqs = []
        for task, n, m, kind, args in rows:
            g, label = _graph(kind, *args)
            if g.n != n + m:
                raise ValueError(f"{label} does not host n={n}, m={m}")
            reqs.append(_request(rng, task, kind, g, label, n, verify))
        return reqs
    return build


BREADTH_KINDS = ["path", "grid", "tree", "star", "complete", "brickwall", "random"]
# per graph kind: (task, n, lowest m, highest m).  Diagonals come in pairs,
# one below and one above the m = 3n at which the ancilla pipelines take
# over; narrow m ranges keep the seed-to-seed spread of the quality metrics
# small while m itself stays random.
BREADTH_TASKS = ([("diag", n, 0, n - 1) for n in range(2, 7)]
                 + [("diag", n, 3 * n, 3 * n + 2) for n in range(2, 7)]
                 + [("qsp", n, 0, n) for n in range(2, 7)]
                 + [("gus", n, 0, 2) for n in (2, 3)])


def _breadth_small(rng):
    reqs = []
    for kind in BREADTH_KINDS:
        for task, n, m_lo, m_hi in BREADTH_TASKS:
            size = n + int(rng.integers(m_lo, m_hi + 1))
            if kind == "grid":
                rows = int(rng.integers(2, 4))
                g, label = _graph("grid", rows, -(-size // rows))
            elif kind == "brickwall":
                g, label = _graph("brickwall", 1, 1, 3, 3)
            elif kind == "random":
                g, label = _random_connected(rng, size)
            else:
                g, label = _graph(kind, size)
            reqs.append(_request(rng, task, kind, g, label, n, True))
    return reqs


WORKLOADS = {
    "verify-exact": _fixed(VERIFY_EXACT, verify=True),
    "compile-large": _fixed(COMPILE_LARGE, verify=False),
    "breadth-small": _breadth_small,
}


def build(workload, seed):
    """The workload's request list for `seed`."""
    return WORKLOADS[workload](np.random.default_rng(seed))
