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
    "gus-complete-n2-m0": "a08a24ae86e9b03f",
    "gus-complete-n2-m2": "4512386dd1ef7c36",
    "gus-complete-n3-m0": "d445f3652af154cd",
    "gus-complete-n3-m2": "957c18dc98f73337",
    "gus-complete-n4-m0": "2e10994112bfbc01",
    "gus-complete-n4-m2": "7077a0f1f8570a46",
    "gus-complete-permutation": "08e5765790ac175f",
    "gus-path-diagonal": "cedb97d91381e166",
    "gus-path-identity": "5c7479b98e92d405",
    "gus-path-n2-m0": "2b981e1d3f03a1ff",
    "gus-path-n2-m2": "5ea8845d095be6e3",
    "gus-path-n3-m0": "fcd834f3b30ea4e2",
    "gus-path-n3-m2": "8d28d035d7df2d2b",
    "gus-path-n4-m0": "aa2d5636bb4cb903",
    "gus-path-n4-m2": "1fd5a4e3ae9a860a",
    "gus-path-one-qubit": "4bccfd26ca0f7628",
    "gus-path-permutation": "7e650c27698a9461",
    "qsp-brickwall-n6": "6b6d589a7eeb0e8f",
    "qsp-brickwall-n8": "19cab6c2f4d56b2e",
    "qsp-complete-n3": "ad3e2d1463573cdc",
    "qsp-complete-n5": "0bab29c7b5d509f4",
    "qsp-path-basis": "d4ec4503e9c30753",
    "qsp-path-n4": "87a2f78917e9f466",
    "qsp-path-n6": "fbed76a6ca62cffa",
    "qsp-path-real": "03438ed2d9911514",
    "qsp-path-sparse": "3bb5ba3230bdf2b0",
    "qsp-path-zero": "103caede31085392",
    "qsp-relabelled-basis": "b5349e4fa8e25aff",
    "qsp-relabelled-n6": "60aac46de3c19cf2",
    "qsp-relabelled-n8": "73a37eb6a73a85fb",
    "qsp-relabelled-sparse": "7b0a4f263a054507",
    "qsp-star-n4": "8f8edadd2099cfd3",
    "qsp-star-n6": "2c23d6157af656d7",
    "qsp-star-one-qubit": "f6bff8daf8511b6a",
    "qsp-tree2-n5": "85083221fe9b5e8f",
    "qsp-tree2-n7": "c9c98c7c64aa9b77",
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_golden_cascade(name):
    assert _digest(REQUESTS[name]) == GOLDEN[name]
