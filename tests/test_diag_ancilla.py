"""Ancilla-assisted diagonal synthesis: staged pipeline, expander variant,
and the automatic backend dispatch."""
import numpy as np
import pytest

from qgsynth.diag import DiagonalSpec
from qgsynth.diag_ancilla import (
    InsufficientAncilla,
    _Router,
    _induced_subgraph,
    build_layout,
    choose_backend,
    synth_diag_ancilla,
    synth_diag_auto,
)
from qgsynth.graphs import (
    complete_graph,
    explicit_graph,
    grid_graph,
    path_graph,
    star_graph,
    tree_graph,
)
from qgsynth.sim import verify_target


def random_spec(rng, n):
    return DiagonalSpec(n, rng.uniform(0, 2 * np.pi, size=1 << n))


def assert_exact(c, g, spec, m, trace=None, report=None):
    res, restored = verify_target(c, spec, m=g.n - spec.n)
    assert res <= 1e-8
    assert restored


def test_path_pipeline_exact():
    rng = np.random.default_rng(31)
    for n in (2, 3, 4):
        m = 3 * n
        g = path_graph(n + m)
        spec = random_spec(rng, n)
        c, trace, report = synth_diag_ancilla(g, spec, m)
        assert report["violations"] == []
        assert_exact(c, g, spec, m)


def test_auto_ancilla_report_matches_pipeline_report():
    # the dispatcher builds the pipeline itself, so its report must carry
    # the same fields and stage table as synth_diag_ancilla's, plus decision
    rng = np.random.default_rng(32)
    for g, n in ((path_graph(4 + 16), 4), (tree_graph(2, n=31), 4)):
        spec = random_spec(rng, n)
        c, report = synth_diag_auto(g, spec, g.n - n)
        c2, table, report2 = synth_diag_ancilla(g, spec, g.n - n)
        assert c.gates == c2.gates
        assert list(report) == list(report2) + ["decision"]
        assert {k: report[k] for k in report2} == report2
        assert report["stages"] == table
        assert sum(s["size"] for s in report["stages"]) == report["size"]


def test_tree_pipeline_exact():
    rng = np.random.default_rng(32)
    n = 3
    m = 3 * n
    g = tree_graph(2, n=n + m)
    spec = random_spec(rng, n)
    c, trace, report = synth_diag_ancilla(g, spec, m)
    assert report["violations"] == []
    assert_exact(c, g, spec, m)


@pytest.mark.parametrize("dims, n", [([80, 2], 3), ([80, 2], 4),
                                     ([100, 2], 5), ([2, 40, 3], 4)])
def test_grid_rows_shorter_than_n_keep_inputs_on_1_to_n(dims, n):
    # the boustrophedon line leaves qubits 1..n after its first row, so
    # the input register must not be read off the line's first n vertices
    g = grid_graph(dims)
    layout = build_layout(g, n, g.n - n)
    assert layout.r_inp == list(range(1, n + 1))
    spec = random_spec(np.random.default_rng(n), n)
    _, report = synth_diag_auto(g, spec, g.n - n)
    assert report["decision"] == "ancilla-grid"
    assert report["residual"] <= 1e-8 and report["ancilla_restored"]


def test_pipeline_inverse_restores_ancilla_exactly():
    # stronger than the residual check: every computational ancilla weight
    # must vanish on every basis input
    from qgsynth.sim import sparse_run

    rng = np.random.default_rng(33)
    n = 3
    m = 3 * n
    g = path_graph(n + m)
    spec = random_spec(rng, n)
    c, _, _ = synth_diag_ancilla(g, spec, m)
    anc_mask = (1 << m) - 1
    for x in range(1 << n):
        state = sparse_run(c.expanded(), x << m)
        for b, a in state.items():
            if b & anc_mask:
                assert abs(a) <= 1e-10


def test_insufficient_ancilla_raises():
    rng = np.random.default_rng(34)
    n = 4
    g = path_graph(n + 2)
    with pytest.raises(InsufficientAncilla):
        build_layout(g, n, 2)


def test_expander_three_stage_exact():
    rng = np.random.default_rng(35)
    n = 3
    g = complete_graph(6)
    spec = random_spec(rng, n)
    c, report = synth_diag_auto(g, spec, m=3)
    assert report["decision"] == "ancilla-expander"
    assert report["violations"] == []
    assert_exact(c, g, spec, 3)


@pytest.mark.parametrize(
    "g, n, m, want",
    [
        (path_graph(16), 4, 12, "ancilla-path"),
        (path_graph(12), 4, 8, "noancilla-path"),
        (path_graph(4), 4, 0, "noancilla-path"),
        (tree_graph(2, n=16), 4, 12, "ancilla-tree"),
        (star_graph(10), 4, 6, "noancilla-star"),
        (complete_graph(8), 4, 4, "ancilla-expander"),
        (complete_graph(6), 4, 2, "noancilla-complete"),
        (grid_graph([4, 4]), 4, 12, "noancilla-grid"),
        (path_graph(4), 1, 3, "noancilla-path"),
    ],
)
def test_choose_backend_dispatch(g, n, m, want):
    assert choose_backend(g, n, m) == want


def test_auto_falls_back_and_stays_correct():
    rng = np.random.default_rng(36)
    # too few ancilla for the pipeline: auto must still produce a correct
    # circuit via the no-ancilla strategy
    n = 3
    g = path_graph(n + 2)
    spec = random_spec(rng, n)
    c, report = synth_diag_auto(g, spec, m=2)
    assert report["decision"].startswith("noancilla")
    assert report["violations"] == []
    assert_exact(c, g, spec, 2)


@pytest.mark.parametrize("g, m", [
    (path_graph(4), 3),
    (tree_graph(2, n=4), 3),
    (grid_graph([6, 7]), 41),
])
def test_auto_one_qubit_with_ancilla(g, m):
    # the layout backends need n >= 2: a 1-qubit diagonal with enough
    # ancilla for them must fall back, not raise
    spec = DiagonalSpec(1, [0.1, 0.7])
    c, report = synth_diag_auto(g, spec, m)
    assert report["decision"].startswith("noancilla")
    assert report["violations"] == []
    assert report["residual"] <= 1e-9
    assert report["ancilla_restored"]
    assert_exact(c, g, spec, m)


def test_auto_with_ancilla_beats_hard_cases_on_depth():
    # ancilla pipeline must not be deeper than the documented multiple of
    # the ideal per-rotation cost; sanity ceiling only
    rng = np.random.default_rng(37)
    n = 4
    m = 3 * n
    g = path_graph(n + m)
    spec = random_spec(rng, n)
    c, _, report = synth_diag_ancilla(g, spec, m)
    assert report["depth"] <= 64 * (1 << n)


def _holder_scan(g, r_inp, holders, bit, near):
    """The nearest holder by a scan over every holder of the bit: the input
    qubit first, then the holders in assignment order; strictly closer
    wins, so the earliest wins a tie."""
    dist = g.bfs_dist(near)
    best = r_inp[bit - 1]
    for v in holders.get(bit, ()):
        if dist[v] < dist[best]:
            best = v
    return best


@pytest.mark.parametrize("g", [path_graph(23), grid_graph([4, 5]),
                               tree_graph(2, n=27)], ids=lambda g: g.kind)
def test_router_source_matches_holder_scan(g):
    rng = np.random.default_rng(38)
    r_inp = [int(v) for v in rng.choice(np.arange(1, g.n + 1), 4, replace=False)]
    rt = _Router(g, r_inp)
    holders = {}
    ties = 0
    for step in range(400):
        bit = int(rng.integers(1, 5))
        v = int(rng.integers(1, g.n + 1))
        if step % 150 == 149:
            rt.clear()
            holders.clear()
        elif rng.random() < 0.3:
            rt.hold(v, bit)
            holders.setdefault(bit, []).append(v)
        else:
            want = _holder_scan(g, r_inp, holders, bit, v)
            assert rt.source(bit, v) == want
            dist = g.bfs_dist(v)
            ties += sum(dist[u] == dist[want]
                        for u in holders.get(bit, ()) if u != want)
    assert ties > 0  # the tie-break was exercised


@pytest.mark.parametrize("g, n", [(path_graph(3 + 9), 3),
                                  (grid_graph([8, 10]), 2),
                                  (tree_graph(2, n=31), 4)],
                         ids=["path", "grid", "tree"])
def test_stage_table_sums_to_report(g, n):
    spec = random_spec(np.random.default_rng(39), n)
    c, report = synth_diag_auto(g, spec, g.n - n, verify=False)
    assert report["backend"].startswith("ancilla-")
    stages = report["stages"]
    assert len(stages) == 5
    assert sum(s["size"] for s in stages) == report["size"]
    assert sum(s["two_qubit"] for s in stages) == report["two_qubit"]


def routes(g):
    return sum(key[0] == "route" for key in g._memo)


def test_route_cache_survives_whole_graph_calls():
    # with m = 0 the no-ancilla strategy runs on the graph itself, not on a
    # rebuilt copy, so the routes of the first call serve the second; every
    # walk CNOT goes through the route cache, on a complete graph too
    cycle = explicit_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    for g in (path_graph(14), complete_graph(8), cycle):
        assert _induced_subgraph(g, g.n) is g
        spec = random_spec(np.random.default_rng(40), g.n)
        synth_diag_auto(g, spec, 0, verify=False)
        cached = routes(g)
        assert cached > 0
        synth_diag_auto(g, spec, 0, verify=False)
        assert routes(g) == cached


@pytest.mark.parametrize("name", ["expander_cascade", "vertex_expansion"])
def test_cascade_bug_is_not_a_fallback(name, monkeypatch):
    # only the cascade's own refusals mean "no cascade"; any other error
    # propagates instead of silently picking (and caching) the fallback
    from qgsynth import diag_ancilla

    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(diag_ancilla, name, broken)
    g = complete_graph(6)
    with pytest.raises(TypeError, match="bug"):
        synth_diag_auto(g, random_spec(np.random.default_rng(42), 3), 3)
    # at most the expansion, which the broken cascade did not touch
    assert set(g._memo) <= {("expansion",)}


def test_cascade_refusal_falls_back():
    from qgsynth.graphs import GrowthStalled

    g = complete_graph(6)
    spec = random_spec(np.random.default_rng(43), 3)

    def stalled(*args, **kwargs):
        raise GrowthStalled("no growth")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("qgsynth.diag_ancilla.expander_cascade", stalled)
        _, report = synth_diag_auto(g, spec, 3)
    assert report["decision"] == "noancilla-complete"
    assert report["residual"] <= 1e-8


def test_auto_on_two_vertices_falls_back_to_the_walk():
    # m >= n on a complete graph asks for the expander backend, but vertex
    # expansion is undefined on two vertices: no cascade, so the one qubit
    # gets the complete-graph walk
    g = complete_graph(2)
    spec = DiagonalSpec(1, [0.0, 1.3])
    c, report = synth_diag_auto(g, spec, m=1)
    assert report["decision"] == "noancilla-complete"
    assert report["core_backend"] == "complete"
    assert report["violations"] == []
    assert report["residual"] <= 1e-12 and report["ancilla_restored"]
    assert verify_target(c, spec, m=1)[0] <= 1e-12
