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
    "gus-complete-n2-m0": "6e4375d8ffa6754a",
    "gus-complete-n2-m2": "781d784a1605a21e",
    "gus-complete-n3-m0": "09498230af24b88a",
    "gus-complete-n3-m2": "bb2ae05c73d56f42",
    "gus-complete-n4-m0": "18f54f9c4f7ad5ab",
    "gus-complete-n4-m2": "cde9f709be801f46",
    "gus-complete-permutation": "783845205481d261",
    "gus-path-diagonal": "b64f8425265459a5",
    "gus-path-identity": "ce93159e69a63742",
    "gus-path-n2-m0": "6e4375d8ffa6754a",
    "gus-path-n2-m2": "781d784a1605a21e",
    "gus-path-n3-m0": "f361651f3b37a2ce",
    "gus-path-n3-m2": "b5785a26c9416940",
    "gus-path-n4-m0": "fe5ce8aae4401a1d",
    "gus-path-n4-m2": "a33b8d6fbd6cc5ff",
    "gus-path-one-qubit": "cce1ad97d81af474",
    "gus-path-permutation": "0fdefe900eea00a9",
    "qsp-brickwall-n6": "e2157e2289d633a4",
    "qsp-brickwall-n8": "0be81af33a889e27",
    "qsp-complete-n3": "7c4e4826e429684d",
    "qsp-complete-n5": "0bab29c7b5d509f4",
    "qsp-path-basis": "3b64698d85a114e0",
    "qsp-path-n4": "f6743771753d7514",
    "qsp-path-n6": "c89b9dd9749015b4",
    "qsp-path-real": "99d2f7a42ac356a9",
    "qsp-path-sparse": "01b2560e920c5b09",
    "qsp-path-zero": "4d367e3be4946c45",
    "qsp-relabelled-basis": "84c4d8e256e6d26c",
    "qsp-relabelled-n6": "c108e6bb8f858d19",
    "qsp-relabelled-n8": "f868cfdcce0fc660",
    "qsp-relabelled-sparse": "18409962d158ab96",
    "qsp-star-n4": "757f952a8fdadcd2",
    "qsp-star-n6": "2c23d6157af656d7",
    "qsp-star-one-qubit": "d43e7db9d2a98972",
    "qsp-tree2-n5": "8081344bf1c5e6d1",
    "qsp-tree2-n7": "71e307405212ccfa",
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_golden_cascade(name):
    assert _digest(REQUESTS[name]) == GOLDEN[name]
