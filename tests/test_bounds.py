"""Circuit transformation between connectivity graphs, brick-wall-to-grid
embedding, lightcone accounting, and closed-form depth lower bounds."""
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_lightcone as ref_lc
import reference_matching as ref
from qgsynth.bounds import (
    BridgeInvalid,
    EdgeBridge,
    brickwall_embedding,
    depth_lower_bound,
    lightcone_budget_check,
    lightcone_profile,
    max_matching_size,
    transform_circuit,
)
from qgsynth.circuit import Circuit, validate_connectivity
from qgsynth.diag import DiagonalSpec, synth_diag_noancilla
from qgsynth.graphs import (
    brickwall_graph,
    complete_graph,
    explicit_graph,
    grid_graph,
    path_graph,
    star_graph,
    tree_graph,
)
from qgsynth.sim import simulate
from qgsynth.states import StateSpec, qsp_synthesize


# --- transformation -------------------------------------------------------

def k5_to_path_bridge():
    """All K5 edges missing from the path, each routed along the path."""
    classes = []
    for u in range(1, 5):
        for v in range(u + 2, 6):
            classes.append({(u, v): tuple(range(u, v + 1))})
    return EdgeBridge(classes=classes, contracted={})


def test_transform_is_exact_and_valid():
    rng = np.random.default_rng(61)
    g = path_graph(5)
    gp = complete_graph(5)
    bridge = k5_to_path_bridge()
    bridge.validate(g)
    c = Circuit(5)
    for _ in range(25):
        if rng.random() < 0.5:
            a, b = rng.choice(np.arange(1, 6), size=2, replace=False)
            c.add("cx", (int(a), int(b)))
        else:
            c.add("ry", (int(rng.integers(1, 6)),),
                  float(rng.uniform(-np.pi, np.pi)))
    out = transform_circuit(c, g, gp, bridge)
    assert validate_connectivity(out, g) == []
    u0 = simulate(c, mode="unitary")
    u1 = simulate(out, mode="unitary")
    assert np.max(np.abs(u0 - u1)) < 1e-10


def test_transform_depth_factor():
    rng = np.random.default_rng(62)
    g = path_graph(5)
    gp = complete_graph(5)
    bridge = k5_to_path_bridge()
    c = Circuit(5)
    for _ in range(40):
        a, b = rng.choice(np.arange(1, 6), size=2, replace=False)
        c.add("cx", (int(a), int(b)))
    out = transform_circuit(c, g, gp, bridge)
    d_in = len(ref_lc.layers(c)[1])
    d_out = len(ref_lc.layers(out)[1])
    assert d_out <= (1 + 4 * bridge.c_prime * bridge.c) * d_in


def test_transform_rejects_unbridged_edges():
    g = path_graph(4)
    gp = complete_graph(4)
    bridge = EdgeBridge(classes=[{(1, 3): (1, 2, 3)}], contracted={})
    c = Circuit(4)
    c.add("cx", (1, 4))
    with pytest.raises(BridgeInvalid):
        transform_circuit(c, g, gp, bridge)


# --- brick wall embedding -------------------------------------------------

def test_brickwall_embedding_structure():
    bw = brickwall_graph(2, 2, 3, 5)
    grid, bridge = brickwall_embedding(bw)
    b2 = 5
    assert len(bridge.classes) <= 4 * (b2 - 2)
    bridge.validate(bw)
    # every grid edge is either a brick-wall edge or covered by the bridge
    covered = set(bridge.edge_paths())
    for u, v in grid.edges:
        if u > bw.n or v > bw.n:
            continue
        key = (u, v) if u < v else (v, u)
        assert bw.has_edge(u, v) or key in covered


def test_brickwall_embedding_paths_disjoint_within_class():
    bw = brickwall_graph(2, 2, 3, 5)
    _, bridge = brickwall_embedding(bw)
    for cls in bridge.classes:
        seen = set()
        for path in cls.values():
            s = set(path)
            assert not (s & seen)
            seen |= s


def test_brickwall_pullback_of_grid_circuit():
    # synthesize under the grid supergraph, pull back to the brick wall
    rng = np.random.default_rng(63)
    bw = brickwall_graph(1, 1, 3, 3)
    grid, bridge = brickwall_embedding(bw)
    n = 3
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    c, _ = qsp_synthesize(grid, StateSpec(n, v), m=grid.n - n)
    out = transform_circuit(c, bw, grid, bridge)
    assert validate_connectivity(out, bw) == []
    from qgsynth.sim import verify_target

    res, ok = verify_target(out, StateSpec(n, v), m=bw.n - n)
    assert res <= 1e-9 and ok


# --- lightcone ------------------------------------------------------------

def figure_circuit():
    c = Circuit(6)
    for q in range(1, 7):
        c.add("h", (q,))
    for a, b in ((1, 2), (3, 4), (5, 6)):
        c.add("cx", (a, b))
    for q in (2, 3, 5, 6):
        c.add("h", (q,))
    for a, b in ((2, 3), (5, 6)):
        c.add("cx", (a, b))
    for q in (1, 2, 4, 5):
        c.add("h", (q,))
    for a, b in ((1, 2), (4, 5)):
        c.add("cx", (a, b))
    for q in range(1, 7):
        c.add("s", (q,))
    return c


def test_lightcone_profile_frozen_oracle():
    # hand-derived backward-reachability trace of the fixed 6-qubit circuit
    # 3 input qubits, 3 ancilla
    profile = lightcone_profile(figure_circuit(), 3)
    assert list(profile.sizes)[:7] == [4, 4, 2, 2, 2, 2, 3]
    assert profile.budget == 19


def test_lightcone_budget_check_on_synthesized_circuit():
    rng = np.random.default_rng(64)
    n = 4
    theta = rng.uniform(0, 2 * np.pi, size=16)
    c, _ = synth_diag_noancilla(path_graph(n), DiagonalSpec(n, theta))
    budget, required, ok = lightcone_budget_check(c, "diag", n)
    assert required == 15
    assert ok and budget >= required


@pytest.mark.parametrize("n", [0, -2, 4, 9])
def test_lightcone_budget_check_refuses_n_outside_the_circuit(n):
    c = Circuit(3)
    c.add("h", (1,))
    c.add("cx", (1, 2))
    with pytest.raises(ValueError, match=f"n = {n} is not in 1..3"):
        lightcone_budget_check(c, "qsp", n)


@st.composite
def layered_cases(draw):
    """(circuit, n_inputs): random cx, swap and h/s/x/ry/rz gates on 1..7
    qubits, and any input count 0..n."""
    n = draw(st.integers(1, 7))
    c = Circuit(n)
    names = ["h", "s", "x", "ry", "rz"] + (["cx", "swap"] if n > 1 else [])
    for _ in range(draw(st.integers(0, 40))):
        name = draw(st.sampled_from(names))
        if name in ("cx", "swap"):
            a = draw(st.integers(1, n))
            b = draw(st.integers(1, n - 1))
            c.add(name, (a, b if b < a else b + 1))
        else:
            c.add(name, (draw(st.integers(1, n)),),
                  0.4 if name in ("ry", "rz") else None)
    return c, draw(st.integers(0, n))


@given(layered_cases())
@settings(max_examples=300, deadline=None)
def test_lightcone_profile_matches_reference_layering(case):
    c, k = case
    assert lightcone_profile(c, k).sets == ref_lc.profile_sets(c, k)


# --- lower bounds ---------------------------------------------------------

def test_max_matching_values():
    assert max_matching_size(path_graph(10)) == 5
    assert max_matching_size(star_graph(7)) == 1
    assert max_matching_size(complete_graph(6)) == 3


def relabeled(g, seed):
    """g with its vertices shuffled, so the greedy start of the matching
    (in edge order) differs from one copy to the next."""
    perm = list(range(1, g.n + 1))
    random.Random(seed).shuffle(perm)
    return explicit_graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


PETERSEN = explicit_graph(10, [(i, i % 5 + 1) for i in range(1, 6)]
                          + [(i, i + 5) for i in range(1, 6)]
                          + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)])


@pytest.mark.parametrize("g, nu", [
    (explicit_graph(5, [(i, i % 5 + 1) for i in range(1, 6)]), 2),  # C5
    (PETERSEN, 5),
    (explicit_graph(6, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)]), 3),
    (complete_graph(3), 1),
    (complete_graph(5), 2),
    (complete_graph(7), 3),
    (complete_graph(9), 4),
], ids=["C5", "petersen", "two-triangles", "K3", "K5", "K7", "K9"])
def test_max_matching_blossom_cases(g, nu):
    # odd cycles are where a greedy matching can leave an augmenting path
    # that only a shrunk blossom exposes; every relabeling must find nu
    for seed in range(30):
        h = relabeled(g, seed)
        assert max_matching_size(h) == ref.max_matching_size(h) == nu


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 1..12 vertices plus any extra edges."""
    n = draw(st.integers(1, ref.LIMIT))
    edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    if n > 1:
        vertex = st.integers(1, n)
        edges += [(u, v) for u, v in draw(st.lists(st.tuples(vertex, vertex),
                                                   max_size=3 * n)) if u != v]
    return relabeled(explicit_graph(n, edges), draw(st.integers(0, 2**32 - 1)))


@given(connected_graphs())
@settings(max_examples=300, deadline=None)
def test_max_matching_equals_exhaustive_search(g):
    assert max_matching_size(g) == ref.max_matching_size(g)


@pytest.mark.parametrize("g, nu", [
    (path_graph(398), 199),
    (grid_graph([12, 37]), 222),
    (grid_graph([8, 37]), 148),
    (tree_graph(2, n=56), 20),
    (complete_graph(24), 12),
], ids=["path(398)", "grid(12x37)", "grid(8x37)", "tree2(56)", "complete(24)"])
def test_max_matching_of_the_benchmark_graphs(g, nu):
    # pinned from networkx's max_weight_matching(maxcardinality=True)
    assert max_matching_size(g) == nu


def test_depth_lower_bound_path_example():
    out = depth_lower_bound(path_graph(10), "qsp", 10, 0)
    terms = out["terms"]
    assert terms["input_count"] == 10
    assert abs(terms["ancilla_volume"] - 102.4) < 1e-9
    assert abs(terms["matching"] - 204.8) < 1e-9
    assert out["nu"] == 5
    assert out["max"] == max(terms.values())


def test_depth_lower_bound_refuses_n_outside_the_graph():
    for n in (10, 0, -2):
        with pytest.raises(ValueError, match="not in 1..4"):
            depth_lower_bound(path_graph(4), "qsp", n, 4 - n)


def test_depth_lower_bound_on_one_vertex_has_no_matching_term():
    # a one-vertex graph has no edge (nu = 0), so no CNOT bounds the depth
    for g in (path_graph(1), complete_graph(1)):
        for task, big in (("diag", 2.0), ("qsp", 2.0), ("gus", 4.0)):
            out = depth_lower_bound(g, task, 1, 0)
            assert out["nu"] == 0 and "matching" not in out["terms"]
            assert out["max"] == big


def test_depth_lower_bound_star_and_gus():
    out = depth_lower_bound(star_graph(5), "qsp", 4, 1)
    assert out["terms"]["star"] == 16
    out = depth_lower_bound(complete_graph(3), "gus", 3, 0)
    # 4^3 - 1 dimension family shows up through the matching term
    assert out["terms"]["matching"] == 4**3 / max_matching_size(
        complete_graph(3))


def test_depth_lower_bound_below_measured_depth():
    rng = np.random.default_rng(65)
    n = 4
    theta = rng.uniform(0, 2 * np.pi, size=16)
    for g in (path_graph(n), star_graph(n), tree_graph(2, n=n)):
        c, report = synth_diag_noancilla(g, DiagonalSpec(n, theta))
        lb = depth_lower_bound(g, "diag", n, 0)
        assert lb["max"] <= report["depth"]
