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
    "gus-complete-n2-m0": "231d8d055f7626f3",
    "gus-complete-n2-m2": "52d743d1bf37ba0e",
    "gus-complete-n3-m0": "3d19113cf76f63c5",
    "gus-complete-n3-m2": "dfce5f835058c21f",
    "gus-complete-n4-m0": "6a87b4d7eec721d0",
    "gus-complete-n4-m2": "555b4367cc3c84dd",
    "gus-complete-permutation": "6897c28818211c2e",
    "gus-path-diagonal": "cedb97d91381e166",
    "gus-path-identity": "5c7479b98e92d405",
    "gus-path-n2-m0": "b3030e470fc4981c",
    "gus-path-n2-m2": "b3ff69560aae95d2",
    "gus-path-n3-m0": "15b9be8654541377",
    "gus-path-n3-m2": "b6363b984f2bd65c",
    "gus-path-n4-m0": "7672ed3170dcef76",
    "gus-path-n4-m2": "bad3a16e350b610f",
    "gus-path-one-qubit": "4bccfd26ca0f7628",
    "gus-path-permutation": "865aafd9e16a2f4b",
    "qsp-brickwall-n6": "47d071537acb5329",
    "qsp-brickwall-n8": "a5346377f79e929f",
    "qsp-complete-n3": "8430ffbc3e4995a4",
    "qsp-complete-n5": "0fc8492f0f89e7e7",
    "qsp-path-basis": "478678575d4526f2",
    "qsp-path-n4": "7509ea1a6702278a",
    "qsp-path-n6": "084f47c930f777e8",
    "qsp-path-real": "df05eca3f6c9bda9",
    "qsp-path-sparse": "65ed3ea6eee7a6b0",
    "qsp-path-zero": "103caede31085392",
    "qsp-relabelled-basis": "8307c8a3cdd0205b",
    "qsp-relabelled-n6": "3d4cd30bc7f647b8",
    "qsp-relabelled-n8": "46e73436cc3b547b",
    "qsp-relabelled-sparse": "bf9bc36edbbcbd78",
    "qsp-star-n4": "339c4f9bba6ca48e",
    "qsp-star-n6": "7f93cd1f6f0fbd45",
    "qsp-star-one-qubit": "b65068b84555534d",
    "qsp-tree2-n5": "4e9f77c9eced4c30",
    "qsp-tree2-n7": "e35df22157808ccf",
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_golden_cascade(name):
    assert _digest(REQUESTS[name]) == GOLDEN[name]
