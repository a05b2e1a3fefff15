"""Ancilla-assisted diagonal synthesis: staged pipeline, expander variant,
and the automatic dispatch, which keeps the shallowest of its candidates."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_ancilla

from qgsynth.circuit import validate_connectivity
from qgsynth.diag import DiagonalSpec, synth_diag_noancilla
from qgsynth.diag_ancilla import (
    InsufficientAncilla,
    RegisterLayout,
    SubRegister,
    _Router,
    _induced_subgraph,
    build_layout,
    synth_diag_ancilla,
    synth_diag_auto,
    synth_diag_expander_ancilla,
)
from qgsynth.graphs import (
    complete_graph,
    expander_cascade,
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
        c, report = synth_diag_ancilla(g, spec, m)
        assert report["violations"] == []
        assert_exact(c, g, spec, m)


def test_auto_ancilla_report_matches_pipeline_report():
    # the dispatcher builds the pipeline itself, so its report must carry
    # the same fields and stage table as synth_diag_ancilla's, plus decision;
    # here the pipeline on all m = 63 ancilla wins (1,933 deep, against
    # 3,773 and 2,662 on m' = 31 and 15, and 2,001 without ancilla)
    g, n = tree_graph(2, n=9 + 63), 9
    spec = random_spec(np.random.default_rng(32), n)
    c, report = synth_diag_auto(g, spec, g.n - n)
    c2, report2 = synth_diag_ancilla(g, spec, g.n - n)
    assert report["decision"] == "ancilla-tree"
    assert report["ancilla_used"] == g.n - n
    assert c.gates == c2.gates
    assert list(report) == list(report2) + ["decision"]
    assert {k: report[k] for k in report2} == report2
    assert report["stages"] == report2["stages"]
    assert sum(s["size"] for s in report["stages"]) == report["size"]


def test_tree_pipeline_exact():
    rng = np.random.default_rng(32)
    n = 3
    m = 3 * n
    g = tree_graph(2, n=n + m)
    spec = random_spec(rng, n)
    c, report = synth_diag_ancilla(g, spec, m)
    assert report["violations"] == []
    assert_exact(c, g, spec, m)


def _slots(layout):
    """Every copy, target and aux slot of the layout's blocks."""
    return [v for b in layout.sub_registers
            for v in b.copy_slots + b.targ_slots + b.aux_slots]


@pytest.mark.parametrize("dims, n", [([80, 2], 3), ([80, 2], 4),
                                     ([100, 2], 5), ([2, 40, 3], 4)])
def test_grid_rows_shorter_than_n_keep_inputs_on_1_to_n(dims, n):
    # the boustrophedon line leaves qubits 1..n after its first row, so
    # the input register must not be read off the line's first n vertices
    g = grid_graph(dims)
    layout = build_layout(g, n, g.n - n)
    assert layout.n == n
    assert all(n < v <= g.n for v in _slots(layout))
    spec = random_spec(np.random.default_rng(n), n)
    _, report = synth_diag_ancilla(g, spec, g.n - n)
    assert report["backend"] == "ancilla-grid"
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
    c, _ = synth_diag_ancilla(g, spec, m)
    anc_mask = (1 << m) - 1
    for x in range(1 << n):
        state = sparse_run(c.expanded(), x << m)
        for b, a in state.items():
            if b & anc_mask:
                assert abs(a) <= 1e-10


def test_layout_refuses_a_vertex_in_two_slots():
    layout = build_layout(path_graph(40), 4, 36)
    blk = layout.sub_registers[0]
    with pytest.raises(ValueError, match="two slots"):
        RegisterLayout(4, layout.p, layout.tau, layout.ell_plan,
                       [SubRegister(blk.copy_slots, blk.targ_slots,
                                    [blk.copy_slots[0]]),
                        *layout.sub_registers[1:]])
    with pytest.raises(ValueError, match="two slots"):
        RegisterLayout(4, layout.p, layout.tau, layout.ell_plan,
                       [SubRegister([4, *blk.copy_slots[1:]], blk.targ_slots,
                                    blk.aux_slots),
                        *layout.sub_registers[1:]])


def test_insufficient_ancilla_raises():
    rng = np.random.default_rng(34)
    n = 4
    g = path_graph(n + 2)
    with pytest.raises(InsufficientAncilla):
        build_layout(g, n, 2)


@pytest.mark.parametrize("g", [path_graph(200), grid_graph([8, 25]),
                               tree_graph(2, n=127), tree_graph(2, n=60),
                               tree_graph(2, n=33)],
                         ids=["path", "grid", "tree127", "tree60", "tree33"])
def test_layout_uses_only_vertices_up_to_n_plus_m(g):
    # a layout for m of g's ancilla lives on n+1..n+m and counts as wasted
    # only what it leaves idle there (a binary tree sized its subtrees from
    # g.n: tree(127) with n=6, m=20 used vertex 95 and reported wasted -68)
    built = 0
    for n in range(2, 10):
        for m in sorted({n, 2 * n, 4 * n, 20, 8 * n, 36 * n, g.n - n}):
            if m > g.n - n:
                continue
            try:
                layout = build_layout(g, n, m)
            except InsufficientAncilla:
                continue
            built += 1
            ancilla = _slots(layout)
            assert layout.n == n
            assert all(n < v <= n + m for v in ancilla), (n, m)
            assert 0 <= layout.wasted <= m - len(ancilla), (n, m)
    assert built >= 5


# paths, grids, the depth-first fallback of shallow binary trees
# (tree(32), tree(64)) and the deep subtree tier (tree(127)).  The small
# tree tier, one layer of subtrees right below the inputs, is left out:
# its blocks can have fewer than p copy slots (ROADMAP item 2(a))
SUFFIX_CASES = (
    [(path_graph(n + m), n, m) for n in (2, 3, 5, 8, 12)
     for m in (2 * n, 3 * n, 8 * n, 400)]
    + [(grid_graph([8, 37]), n, 296 - n) for n in (2, 4, 6, 8)]
    + [(grid_graph([2, 100]), n, 200 - n) for n in (2, 5)]
    + [(tree_graph(2, n=32), n, 32 - n) for n in range(2, 9)]
    + [(tree_graph(2, n=64), n, 64 - n) for n in range(4, 9)]
    + [(tree_graph(2, n=127), n, 127 - n) for n in range(3, 8)]
)


@pytest.mark.parametrize("g, n, m", SUFFIX_CASES,
                         ids=[f"{g.kind}{g.n}-n{n}-m{m}"
                              for g, n, m in SUFFIX_CASES])
def test_every_block_holds_every_suffix_bit(g, n, m):
    # suffix-copy writes suffix bit n - p + 1 + (idx mod p) to copy slot
    # idx of each block; gray-init reads the suffix bits from the block's
    # own copies only if it has all p of them (path n=8, m=400 held 1 of 7
    # and routed the other 6 from qubits 1..8 along the whole line)
    layout = build_layout(g, n, m)
    p = layout.p
    for blk in layout.sub_registers:
        held = {n - p + 1 + idx % p for idx in range(len(blk.copy_slots))}
        assert held == set(range(n - p + 1, n + 1))


@pytest.mark.parametrize("g, n, m", [
    (path_graph(20), 4, 16), (path_graph(412), 12, 400),
    (grid_graph([8, 37]), 6, 290), (tree_graph(2, n=127), 3, 124),
    (tree_graph(2, n=150), 6, 144), (tree_graph(2, n=32), 6, 26),
], ids=["path20", "path412", "grid8x37", "tree127", "tree150", "tree32"])
def test_prefix_copy_leaves_every_slot_holding_its_bits(g, n, m):
    # the first three stages are CNOTs: run each input bit through them
    # alone and collect, per vertex, the input bits whose parity it holds.
    # Copy slot idx holds prefix bit idx mod (n - p) + 1, aux slot idx bit
    # idx mod tau + 1, target t its suffix pattern; every other ancilla is
    # clear again
    from qgsynth import diag_ancilla
    layout = build_layout(g, n, m)
    t = diag_ancilla._ancilla_pipeline(g, n, m)
    end = dict(t.meta["marks"])["prefix-copy"]
    held = {}
    for bit in range(1, n + 1):
        ones = {bit}
        for name, (u, v), _ in t.gates[:end]:
            assert name == "cx"
            if u in ones:
                ones ^= {v}
        for v in ones:
            held.setdefault(v, set()).add(bit)
    p, tau = layout.p, layout.tau
    want = {v: {v} for v in range(1, n + 1)}
    for blk in layout.sub_registers:
        for i, v in enumerate(blk.copy_slots):
            want[v] = {i % (n - p) + 1}
        for i, v in enumerate(blk.aux_slots):
            want[v] = {i % tau + 1}
    for k, v in enumerate(layout.r_targ):
        bits = {n - p + j for j in range(1, p + 1) if (k >> (p - j)) & 1}
        if bits:
            want[v] = bits
    assert held == want


@pytest.mark.parametrize("g, n, m", [
    (path_graph(398), 14, 96), (path_graph(412), 12, 400),
    (path_graph(20), 4, 16), (grid_graph([8, 37]), 8, 288),
    (grid_graph([3, 37]), 3, 108), (tree_graph(2, n=56), 14, 42),
    (tree_graph(2, n=330), 10, 160), (tree_graph(2, n=32), 5, 27),
    (tree_graph(2, n=127), 7, 56),
], ids=["path398", "path412", "path20", "grid8x37", "grid3x37", "tree56",
        "tree330", "tree32", "tree127-small"])
def test_gray_cycle_matches_the_reference_loop(g, n, m, monkeypatch):
    # the table-driven Gray cycle emits the reference loop's gates and
    # slots: the same tuples in the same order, slot for slot
    from qgsynth import diag_ancilla
    want = diag_ancilla._ancilla_pipeline(g, n, m)
    monkeypatch.setattr(diag_ancilla, "_stage_graycycle",
                        reference_ancilla.stage_graycycle)
    ref = diag_ancilla._ancilla_pipeline(g, n, m)
    assert want.gates == ref.gates
    assert want.meta["marks"] == ref.meta["marks"]
    assert np.array_equal(want.pos, ref.pos)
    assert np.array_equal(want.idx, ref.idx)


def test_ladder_stops_at_the_first_rung_without_a_layout(monkeypatch):
    # grid(8x38) with n=2, m=302: rungs 302, 151 and 75 have a layout
    # (m' >= 36n = 72), 37 has none, and 18, 9, 4, 2 are never tried
    from qgsynth import diag_ancilla
    tried = []

    def counted(g, n, m, _build=diag_ancilla.build_layout):
        tried.append(m)
        return _build(g, n, m)

    monkeypatch.setattr(diag_ancilla, "build_layout", counted)
    g = grid_graph([8, 38])
    synth_diag_auto(g, random_spec(np.random.default_rng(46), 2), 302,
                    verify=False)
    assert tried == [302, 151, 75, 37]


def test_auto_keeps_the_ladder_rung_it_ran_on():
    # on tree(330) with n=10 the pipeline is shallower on m' = 160 than on
    # all m = 320 ancilla: auto keeps that rung, reports the m' it used,
    # counts the idle m - m' in `wasted`, and touches no vertex above n + m'
    g, n, m = tree_graph(2, n=330), 10, 320
    spec = random_spec(np.random.default_rng(45), n)
    c, report = synth_diag_auto(g, spec, m, verify=False)
    c2, report2 = synth_diag_ancilla(g, spec, 160, verify=False)
    full = synth_diag_ancilla(g, spec, m, verify=False)[1]
    assert report["decision"] == "ancilla-tree"
    assert report["ancilla_used"] == report2["ancilla_used"] == 160
    assert full["ancilla_used"] == m
    assert report["wasted"] == report2["wasted"] + m - 160
    assert c.gates == c2.gates
    assert report["depth"] == report2["depth"] < full["depth"]
    assert max(q for _, qs, _ in c.gates for q in qs) <= n + 160


def test_expander_three_stage_exact():
    rng = np.random.default_rng(35)
    n = 3
    g = complete_graph(6)
    spec = random_spec(rng, n)
    c, report = synth_diag_expander_ancilla(g, spec, expander_cascade(g, 1, 2))
    assert report["backend"] == "ancilla-expander"
    assert validate_connectivity(c, g) == []
    assert_exact(c, g, spec, 3)


@pytest.mark.parametrize(
    "g, n, m, want",
    [
        (path_graph(16), 4, 12, "noancilla-path"),
        (path_graph(12), 4, 8, "noancilla-path"),
        (path_graph(4), 4, 0, "noancilla-path"),
        (tree_graph(2, n=16), 4, 12, "noancilla-tree-walk"),
        (star_graph(10), 4, 6, "noancilla-star-walk"),
        (complete_graph(8), 4, 4, "noancilla-complete"),
        (complete_graph(6), 4, 2, "noancilla-complete"),
        (grid_graph([4, 4]), 4, 12, "noancilla-general"),
        (path_graph(4), 1, 3, "noancilla-path-walk"),
    ],
)
def test_choose_backend_dispatch(g, n, m, want):
    # the decision names the backend that ran: the no-ancilla template's
    # own backend on vertices 1..n here, each shallower than the pipeline
    spec = random_spec(np.random.default_rng(n + m), n)
    c, report = synth_diag_auto(g, spec, m)
    assert report["decision"] == report["backend"] == want
    assert report["residual"] <= 1e-8 and report["ancilla_restored"]


def _noancilla_on(h, strategy="auto"):
    return lambda g, spec, m: synth_diag_noancilla(h, spec, strategy)[1]


def _strategy(name):
    return lambda g, spec, m: synth_diag_noancilla(g, spec, name)[1]


def _pipeline_on(k):
    """The ancilla pipeline on k of the m ancilla (vertices 1..n+k)."""
    return lambda g, spec, m: synth_diag_ancilla(g, spec, k)[1]


# every candidate: the strategy on 1..n, the general split there when 1..n
# is a path, and the pipeline ladder m' = m, m//2, ... >= n up to the first
# rung without a layout (path(14): m' = 2 < n; path(40): m' = 8 has none)
@pytest.mark.parametrize("g, n, m, candidates, want", [
    (path_graph(14), 3, 11,
     [_noancilla_on(path_graph(3)), _noancilla_on(path_graph(3), "general"),
      _pipeline_on(11), _pipeline_on(5)], "noancilla-general"),
    (tree_graph(2, n=14), 3, 11,
     [_noancilla_on(tree_graph(2, n=3)), _pipeline_on(11), _pipeline_on(5)],
     "noancilla-tree-walk"),
    (complete_graph(12), 3, 9, [_noancilla_on(complete_graph(3))],
     "noancilla-complete"),
    (star_graph(9), 9, 0, [_strategy("auto")], "noancilla-star-walk"),
    (grid_graph([3, 3]), 9, 0, [_strategy("general"), _strategy("auto")],
     "noancilla-general"),
    (grid_graph([2, 7]), 14, 0, [_strategy("general"), _strategy("auto")],
     "noancilla-grid"),
    # the general split wins here: 959, against 2,290 for the path
    # strategy and 2,156 and 1,564 for the pipeline on m' = 32 and 16
    (path_graph(40), 8, 32,
     [_noancilla_on(path_graph(8)), _noancilla_on(path_graph(8), "general"),
      _pipeline_on(32), _pipeline_on(16)], "noancilla-general"),
    (tree_graph(2, n=72), 9, 63,
     [_noancilla_on(tree_graph(2, n=9)), _pipeline_on(63), _pipeline_on(31),
      _pipeline_on(15)], "ancilla-tree"),
], ids=["path14", "tree14", "complete12", "star9", "grid3x3", "grid2x7",
        "path40", "tree72"])
def test_auto_is_the_shallowest_candidate(g, n, m, candidates, want):
    # each candidate is built on its own, through its own entry point
    spec = random_spec(np.random.default_rng(44), n)
    depths = [build(g, spec, m)["depth"] for build in candidates]
    c, report = synth_diag_auto(g, spec, m)
    assert report["depth"] == min(depths)
    assert report["decision"] == want
    assert report["violations"] == []
    assert report["residual"] <= 1e-8 and report["ancilla_restored"]


@pytest.mark.parametrize("n", [1, 3])
def test_auto_refuses_more_than_the_graph_holds(n):
    # whether or not an ancilla backend would have been tried
    spec = random_spec(np.random.default_rng(n), n)
    for m in (5 - n + 1, 9):
        with pytest.raises(ValueError, match="fewer than n \\+ m"):
            synth_diag_auto(path_graph(5), spec, m)


def test_induced_subgraph_keeps_the_star():
    g = star_graph(9)
    assert _induced_subgraph(g, 9) is g
    assert _induced_subgraph(g, 4).kind == "star"
    assert _induced_subgraph(g, 4).n == 4


def test_layout_bug_is_not_a_fallback(monkeypatch):
    # only InsufficientAncilla means "no layout": any other error from the
    # pipeline propagates instead of silently leaving the other candidates
    from qgsynth import diag_ancilla

    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(diag_ancilla, "build_layout", broken)
    g = path_graph(12)
    with pytest.raises(TypeError, match="bug"):
        synth_diag_auto(g, random_spec(np.random.default_rng(42), 4), 8)
    assert not any(key[0] == "auto" for key in g._memo)


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
    c, report = synth_diag_ancilla(g, spec, m)
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


ROUTER_GRAPHS = [path_graph(23), grid_graph([4, 5]), tree_graph(2, n=27)]


@pytest.mark.parametrize("g", ROUTER_GRAPHS, ids=lambda g: g.kind)
def test_router_source_matches_holder_scan(g):
    _check_router(g, g.n)


@pytest.mark.parametrize("g", ROUTER_GRAPHS, ids=lambda g: g.kind)
def test_router_on_a_prefix_matches_holder_scan(g):
    # a router over vertices 1..14 answers for them as one over all of g:
    # holders and queries stay in 1..14, the distances are g's
    _check_router(g, 14)


def _check_router(g, size):
    rng = np.random.default_rng(38)
    r_inp = [int(v) for v in rng.choice(np.arange(1, size + 1), 4, replace=False)]
    steps = []
    for step in range(400):
        bit = int(rng.integers(1, 5))
        v = int(rng.integers(1, size + 1))
        if step % 150 == 149:
            steps.append(("clear", v, bit))
        elif rng.random() < 0.3:
            steps.append(("hold", v, bit))
        else:
            steps.append(("source", v, bit))
    assert _replay_router(g, r_inp, steps) > 0  # the tie-break was exercised


def _replay_router(g, r_inp, steps):
    """Run (kind, vertex, bit) steps on a `_Router` and on `_holder_scan`,
    checking every source; returns how many holders tied with the one
    chosen."""
    rt = _Router(g, r_inp)
    holders = {}
    ties = 0
    for kind, v, bit in steps:
        if kind == "clear":
            rt.clear()
            holders.clear()
        elif kind == "hold":
            rt.hold(v, bit)
            holders.setdefault(bit, []).append(v)
        else:
            want = _holder_scan(g, r_inp, holders, bit, v)
            assert rt.source(bit, v) == want
            dist = g.bfs_dist(v)
            ties += sum(dist[u] == dist[want]
                        for u in holders.get(bit, ()) if u != want)
    return ties


@st.composite
def router_runs(draw):
    """A random connected explicit graph, a prefix 1..size of its
    vertices, up to 4 inputs there and a run of clear, hold and source
    steps on prefix vertices (distances are g's, through any vertex)."""
    n = draw(st.integers(1, 16))
    edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    vertex = st.integers(1, n)
    edges += [(u, v) for u, v in draw(st.lists(st.tuples(vertex, vertex),
                                               max_size=2 * n)) if u != v]
    size = draw(st.integers(1, n))
    inside = st.integers(1, size)
    r_inp = draw(st.lists(inside, min_size=1, max_size=4, unique=True))
    kinds = st.sampled_from(["clear"] + ["hold"] * 3 + ["source"] * 6)
    steps = draw(st.lists(st.tuples(kinds, inside,
                                    st.integers(1, len(r_inp))), max_size=80))
    return explicit_graph(n, edges), r_inp, steps


def test_router_matches_holder_scan_on_random_graphs():
    ties = []

    @given(router_runs())
    @settings(max_examples=200, deadline=None)
    def check(run):
        ties.append(_replay_router(*run))

    check()
    assert sum(ties) > 0  # the tie-break was exercised


@pytest.mark.parametrize("g, n", [(path_graph(3 + 9), 3),
                                  (grid_graph([8, 10]), 2),
                                  (tree_graph(2, n=31), 4)],
                         ids=["path", "grid", "tree"])
def test_stage_table_sums_to_report(g, n):
    spec = random_spec(np.random.default_rng(39), n)
    c, report = synth_diag_ancilla(g, spec, g.n - n, verify=False)
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


@pytest.mark.parametrize("g", [path_graph(60), grid_graph([6, 10]),
                               tree_graph(2, n=63)], ids=lambda g: g.kind)
def test_routes_share_one_gate_per_directed_edge(g):
    # every route and every template CNOT is one of a graph's per-edge gate
    # tuples, so the CNOT objects kept are bounded by the edges, not the
    # gate count; a warm call builds none
    n, m = 6, g.n - 6

    def cnot_ids():
        kept = [gate for key, route in g._memo.items() if key[0] == "route"
                for gate in route]
        kept += [gate for gate in g._memo[("auto", n, m)].gates
                 if gate[0] == "cx"]
        return {id(gate) for gate in kept}

    rng = np.random.default_rng(44)
    synth_diag_auto(g, random_spec(rng, n), m, verify=False)
    cold = cnot_ids()
    assert len(cold) <= 2 * len(g.edges)
    synth_diag_auto(g, random_spec(rng, n), m, verify=False)
    assert cnot_ids() == cold


@pytest.mark.parametrize("g, strategy", [
    (complete_graph(8), "auto"),
    (complete_graph(8), "general"),
    (complete_graph(8), "expander"),
    (complete_graph(10), "expander"),
    (path_graph(8), "auto"),
    (grid_graph([2, 4]), "auto"),
    (complete_graph(10), None),  # the ancilla expander variant
], ids=["complete-auto", "complete-general", "complete-expander",
        "complete10-expander", "path-auto", "grid-auto", "expander-ancilla"])
def test_template_cnots_are_the_graphs_edge_gates(g, strategy):
    # every CNOT of a sealed template is its edge's one gate tuple in
    # g.cx_gates, the expander constructions' matching CNOTs included
    # (complete(8)'s no-ancilla cascade has none, complete(10)'s has one)
    rng = np.random.default_rng(45)
    if strategy is None:
        cascade = expander_cascade(g, 1, 4)
        assert len(cascade.matchings) == 2  # fan-outs hold matching CNOTs
        c, _ = synth_diag_expander_ancilla(g, random_spec(rng, 4), cascade,
                                           verify=False)
    else:
        c, _ = synth_diag_noancilla(g, random_spec(rng, g.n), strategy,
                                    verify=False)
    cnots = [gate for gate in c.template.gates if gate[0] == "cx"]
    assert cnots
    assert all(gate is g.cx_gates[gate[1]] for gate in cnots)


def test_cascade_refusal_falls_back():
    # auto never builds a cascade: with every cascade builder stalled, a
    # complete graph still gets the walk on vertices 1..n
    from qgsynth.graphs import GrowthStalled

    g = complete_graph(6)
    spec = random_spec(np.random.default_rng(43), 3)

    def stalled(*args, **kwargs):
        raise GrowthStalled("no growth")

    with pytest.MonkeyPatch.context() as mp:
        for name in ("expander_cascade", "vertex_expansion"):
            mp.setattr(f"qgsynth.graphs.{name}", stalled)
            mp.setattr(f"qgsynth.diag.{name}", stalled)
        _, report = synth_diag_auto(g, spec, 3)
    assert report["decision"] == "noancilla-complete"
    assert report["residual"] <= 1e-8
    assert ("expansion",) not in g._memo


def test_auto_on_two_vertices_falls_back_to_the_walk():
    # one input leaves no ancilla backend to try: the one qubit gets the
    # complete-graph walk
    g = complete_graph(2)
    spec = DiagonalSpec(1, [0.0, 1.3])
    c, report = synth_diag_auto(g, spec, m=1)
    assert report["decision"] == "noancilla-complete"
    assert report["core_backend"] == "complete"
    assert report["violations"] == []
    assert report["residual"] <= 1e-12 and report["ancilla_restored"]
    assert verify_target(c, spec, m=1)[0] <= 1e-12
