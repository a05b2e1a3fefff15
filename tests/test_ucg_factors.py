"""Which diagonal factors a UCG emits.

A last-target UCG is lam3 . (I x SH) . lam2 . (I x HS+) . lam1
(`ucg_to_diagonals`).  Per branch e^{ia} Rz(b) Ry(c) Rz(d), the middle
factor is Rz(c) = (-c/2, c/2) with no phase of its own, so a UCG of real
rotations Ry(c), c in [0, pi] (QSP stages below n, cosine-sine
multiplexors), emits it alone.  lam1 = (0, d) fixes |0> on the target, so a
QSP stage, whose target still holds |0>, never emits it, and a GUS cascade,
whose targets hold anything, keeps it.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import distance_up_to_phase, random_unitary
from qgsynth.circuit import gate_matrix
from qgsynth.graphs import (
    brickwall_graph,
    complete_graph,
    explicit_graph,
    grid_graph,
    path_graph,
    star_graph,
    tree_graph,
)
from qgsynth.states import (
    StateSpec,
    UcgSpec,
    UnitarySpec,
    gus_synthesize,
    qsp_synthesize,
    synth_ucg,
    ucg_to_diagonals,
)
from test_cascade_scan import STATE_KINDS, make_state
from test_templates import recording_skeletons
from test_ucg_reference import u2

SEEDS = st.integers(0, 2**32 - 1)
# Ry(c) for c in [0, pi]: cos and sin of c/2 are both >= 0
REAL = st.one_of(st.just(0.0), st.just(math.pi), st.floats(0.0, math.pi)).map(
    lambda c: gate_matrix("ry", c))


def _mid(pair, n):
    """The matrix of a pair of mid gates, applied in order to qubit n."""
    m = np.eye(2)
    for name in pair:
        m = gate_matrix(name) @ m
    return np.kron(np.eye(1 << (n - 1)), m)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.one_of(u2(), REAL), min_size=1 << (n - 1),
                         max_size=1 << (n - 1)))))
@settings(max_examples=100, deadline=None)
def test_three_diagonals_make_the_ucg(case):
    n, branches = case
    lam1, lam2, lam3, (mid1, mid2) = ucg_to_diagonals(UcgSpec(n, branches, n))
    made = (np.diag(np.exp(1j * lam3.theta)) @ _mid(mid2, n)
            @ np.diag(np.exp(1j * lam2.theta)) @ _mid(mid1, n)
            @ np.diag(np.exp(1j * lam1.theta)))
    want = np.zeros((1 << n, 1 << n), dtype=complex)
    for z, br in enumerate(branches):
        want[2 * z:2 * z + 2, 2 * z:2 * z + 2] = br
    assert distance_up_to_phase(made, want) <= 1e-10


@given(n=st.integers(1, 5), data=st.data())
@settings(max_examples=40, deadline=None)
def test_real_rotations_emit_the_middle_factor_alone(n, data):
    branches = data.draw(st.lists(REAL, min_size=1 << (n - 1),
                                  max_size=1 << (n - 1)))
    V = UcgSpec(n, branches, n)
    lam1, _, lam3, _ = ucg_to_diagonals(V)
    assert not lam1.theta.any() and not lam3.theta.any()
    skeleton = synth_ucg(path_graph(n), V, 0, verify=False)[0].meta["skeleton"]
    # an all-identity UCG emits nothing at all
    assert skeleton[2] in ((False, True, False), (False, False, False))
    if any(abs(br[1, 0]) > 1e-7 for br in branches):
        assert skeleton[2] == (False, True, False)


# graph family -> a graph of exactly k vertices, or None
GRAPHS = {
    "path": path_graph,
    "star": lambda k: star_graph(k) if k > 1 else None,
    "tree": lambda k: tree_graph(2, n=k),
    "grid": lambda k: grid_graph([2, k // 2]) if k % 2 == 0 and k > 2 else None,
    "complete": lambda k: complete_graph(k) if k > 1 else None,
    "brickwall": lambda k: {6: brickwall_graph(1, 1, 2, 3),
                            8: brickwall_graph(1, 1, 3, 3),
                            12: brickwall_graph(2, 1, 3, 3)}.get(k),
}


def assert_clean_cascade(g, v, m):
    with recording_skeletons() as skeletons:
        _, report = qsp_synthesize(g, v, m)
    assert skeletons and not any(emitted[0] for _, _, emitted in skeletons)
    assert report["residual"] <= 1e-8
    assert report["ancilla_restored"] is True
    assert report["violations"] == []


@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_qsp_never_emits_the_first_factor(family):
    ran = 0
    for n in range(1, 7):
        for m in (0, n):
            for seed, kind in enumerate(STATE_KINDS):
                g = GRAPHS[family](n + m)
                if g is None:
                    continue
                assert_clean_cascade(g, StateSpec(n, make_state(kind, n, seed)), m)
                ran += 1
    assert ran >= 12


@given(n=st.integers(1, 6), extra=st.booleans(), data=st.data(),
       kind=st.sampled_from(STATE_KINDS), seed=SEEDS)
@settings(max_examples=30, deadline=None)
def test_qsp_on_relabelled_random_graphs_never_emits_the_first_factor(
        n, extra, data, kind, seed):
    # a random tree on shuffled labels plus random extra edges
    size = max(2 * n if extra else n, 2)
    order = data.draw(st.permutations(range(1, size + 1)))
    edges = {tuple(sorted((order[i], order[data.draw(st.integers(0, i - 1))])))
             for i in range(1, size)}
    pairs = [(a, b) for a in range(1, size + 1) for b in range(a + 1, size + 1)]
    edges |= set(data.draw(st.lists(st.sampled_from(pairs), max_size=size)))
    g = explicit_graph(size, sorted(edges))
    assert_clean_cascade(g, StateSpec(n, make_state(kind, n, seed)), size - n)


@pytest.mark.parametrize("n, m", [(1, 0), (2, 0), (3, 2)])
def test_gus_keeps_the_first_factor(n, m):
    U = UnitarySpec(n, random_unitary(np.random.default_rng(40 + n), 1 << n))
    with recording_skeletons() as skeletons:
        _, report = gus_synthesize(path_graph(n + m), U, m)
    assert any(emitted[0] for _, _, emitted in skeletons)
    assert report["residual"] <= 1e-8
