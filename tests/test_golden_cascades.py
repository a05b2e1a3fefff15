"""Golden reports for the UCG cascades: `qsp_synthesize` and
`gus_synthesize` must keep emitting the same circuit and the same report,
key order included.

The digest is test_golden_reports.py's: circuit JSON gate list (angles
rounded to 9 decimals) plus the report's items in order, without
`residual`.  The requests cover natural and relabelled hosts, m = 0 and
m > 0, and inputs whose UCGs skip pieces (basis, real and sparse states;
identity, diagonal and permutation unitaries).
"""
import numpy as np
import pytest

from conftest import random_state, random_unitary
from qgsynth.graphs import (
    brickwall_graph,
    complete_graph,
    explicit_graph,
    path_graph,
    star_graph,
    tree_graph,
)
from qgsynth.states import StateSpec, UnitarySpec, gus_synthesize, qsp_synthesize
from test_golden_reports import _digest

QSP_GRAPHS = {
    "path": lambda k: path_graph(k),
    "star": lambda k: star_graph(k),
    "tree2": lambda k: tree_graph(2, n=k),
    "complete": lambda k: complete_graph(k),
    "brickwall": lambda k: brickwall_graph(1, 1, 3, 3),
    "relabelled": lambda k: explicit_graph(
        8, [(1, 3), (3, 2), (2, 4), (4, 5), (5, 6), (6, 7), (7, 8)]),
}
# graph size per family: the brick wall and the relabelled graph have 8
SIZE = {"path": 6, "star": 6, "tree2": 7, "complete": 5, "brickwall": 8,
        "relabelled": 8}


def _basis(n, x):
    v = np.zeros(1 << n, dtype=complex)
    v[x] = 1.0
    return v


def _real(n, seed):
    v = np.random.default_rng(seed).normal(size=1 << n)
    return v / np.linalg.norm(v)


def _sparse(n, seed):
    rng = np.random.default_rng(seed)
    v = np.zeros(1 << n, dtype=complex)
    v[rng.choice(1 << n, size=3, replace=False)] = rng.normal(size=3) + 1j
    return v / np.linalg.norm(v)


def _qsp(family, n, amp):
    def run():
        g = QSP_GRAPHS[family](SIZE[family])
        return qsp_synthesize(g, StateSpec(n, amp), g.n - n)
    return run


def _gus(make, n, m, matrix):
    def run():
        return gus_synthesize(make(n + m), UnitarySpec(n, matrix), m)
    return run


def _permutation(n, seed):
    perm = np.random.default_rng(seed).permutation(1 << n)
    return np.eye(1 << n, dtype=complex)[perm]


def _diagonal(n, seed):
    rng = np.random.default_rng(seed)
    return np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 1 << n)))


REQUESTS = {}
for seed, family in enumerate(QSP_GRAPHS):
    size = SIZE[family]
    for n in (size, size - 2):
        rng = np.random.default_rng(100 + 10 * seed + n)
        REQUESTS[f"qsp-{family}-n{n}"] = _qsp(family, n, random_state(rng, n))
REQUESTS.update({
    "qsp-path-basis": _qsp("path", 4, _basis(4, 0b1010)),
    "qsp-path-zero": _qsp("path", 4, _basis(4, 0)),
    "qsp-path-real": _qsp("path", 4, _real(4, 130)),
    "qsp-path-sparse": _qsp("path", 4, _sparse(4, 131)),
    "qsp-relabelled-basis": _qsp("relabelled", 6, _basis(6, 5)),
    "qsp-relabelled-sparse": _qsp("relabelled", 6, _sparse(6, 132)),
    "qsp-star-one-qubit": _qsp("star", 1, _real(1, 133)),
})
for family, make in (("path", path_graph), ("complete", complete_graph)):
    for n in (2, 3, 4):
        for m in (0, 2):
            rng = np.random.default_rng(200 + 10 * n + m)
            REQUESTS[f"gus-{family}-n{n}-m{m}"] = _gus(
                make, n, m, random_unitary(rng, 1 << n))
REQUESTS.update({
    "gus-path-identity": _gus(path_graph, 3, 0, np.eye(8)),
    "gus-path-diagonal": _gus(path_graph, 3, 0, _diagonal(3, 240)),
    "gus-path-permutation": _gus(path_graph, 3, 0, _permutation(3, 241)),
    "gus-complete-permutation": _gus(complete_graph, 3, 2,
                                     _permutation(3, 242)),
    "gus-path-one-qubit": _gus(path_graph, 1, 2,
                               random_unitary(np.random.default_rng(243), 2)),
})

GOLDEN = {
    "gus-complete-n2-m0": "425c55e4df44ac25",
    "gus-complete-n2-m2": "581a6eb70f5148ce",
    "gus-complete-n3-m0": "060046b4905c6f49",
    "gus-complete-n3-m2": "89bb8e4a27387eb5",
    "gus-complete-n4-m0": "4c81abe572d081f2",
    "gus-complete-n4-m2": "981c4b33d8369cf6",
    "gus-complete-permutation": "07a79bd37217352e",
    "gus-path-diagonal": "b64f8425265459a5",
    "gus-path-identity": "ce93159e69a63742",
    "gus-path-n2-m0": "425c55e4df44ac25",
    "gus-path-n2-m2": "581a6eb70f5148ce",
    "gus-path-n3-m0": "934448b1ea5818ae",
    "gus-path-n3-m2": "da19e9c8eb567c0c",
    "gus-path-n4-m0": "9d993396b1a7781d",
    "gus-path-n4-m2": "1a907b36a70123c9",
    "gus-path-one-qubit": "cce1ad97d81af474",
    "gus-path-permutation": "66cba4cfa336f328",
    "qsp-brickwall-n6": "dee1e4d536ec263f",
    "qsp-brickwall-n8": "7afeeb53055beb45",
    "qsp-complete-n3": "a80dfc1bd7567a67",
    "qsp-complete-n5": "2ec4c773e9ea2810",
    "qsp-path-basis": "d9f8a1023111b867",
    "qsp-path-n4": "cf9a0cf9a56d2a3a",
    "qsp-path-n6": "4c98236bbe46a507",
    "qsp-path-real": "9135bd83b6e6ebfa",
    "qsp-path-sparse": "d97e281e5daaefc3",
    "qsp-path-zero": "4d367e3be4946c45",
    "qsp-relabelled-basis": "5cafc7bf2e960805",
    "qsp-relabelled-n6": "1e2350bde1463f04",
    "qsp-relabelled-n8": "6db48a700602075e",
    "qsp-relabelled-sparse": "407aa39ef39ed9d6",
    "qsp-star-n4": "a5d1148f26a6ae93",
    "qsp-star-n6": "ff21329ae28c2a8b",
    "qsp-star-one-qubit": "d43e7db9d2a98972",
    "qsp-tree2-n5": "e1f7a918e2c1c3f3",
    "qsp-tree2-n7": "59cebdbb6fa628c6",
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_golden_cascade(name):
    assert _digest(REQUESTS[name]) == GOLDEN[name]
