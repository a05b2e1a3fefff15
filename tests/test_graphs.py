import pytest

from qgsynth.graphs import (
    DisconnectedGraph,
    InvalidParameters,
    brickwall_chains,
    brickwall_graph,
    brickwall_row_length,
    build_graph,
    complete_graph,
    dfs_labeling,
    dfs_order,
    explicit_graph,
    graph_to_json,
    grid_graph,
    path_graph,
    shortest_path,
    star_graph,
    tree_graph,
    vertex_expansion,
)


def is_connected(g):
    adj = {v: set() for v in range(1, g.n + 1)}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {1}, [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def test_path_edges():
    g = path_graph(5)
    assert g.edges == frozenset({(1, 2), (2, 3), (3, 4), (4, 5)})


def test_grid_row_major_axis_neighbors():
    g = grid_graph([3, 4])
    assert g.n == 12
    assert g.has_edge(1, 2) and g.has_edge(1, 5)
    assert not g.has_edge(4, 5)  # row boundary
    assert len(g.edges) == 3 * 3 + 2 * 4


def test_grid_3d():
    g = grid_graph([2, 2, 2])
    assert g.n == 8 and len(g.edges) == 12 and is_connected(g)


def test_tree_heap_indexing():
    g = tree_graph(2, depth=3)
    assert g.n == 15
    for v in range(2, 16):
        assert g.has_edge(v, v // 2)
    t = tree_graph(3, n=7)
    assert t.n == 7 and t.has_edge(1, 4) and t.has_edge(2, 6)


def test_dfs_order_is_the_heap_preorder_on_binary_trees():
    # the shallow-tree ancilla layout reads its line off this order
    for n in range(1, 130):
        g = tree_graph(2, n=n)
        want, stack = [], [1]
        while stack:
            v = stack.pop()
            if v <= n:
                want.append(v)
                stack += (2 * v + 1, 2 * v)
        assert dfs_order(g) == want
        assert dfs_labeling(g) == {v: n - i for i, v in enumerate(want)}


def test_star_center():
    g = star_graph(6)
    assert g.edges == frozenset((1, k) for k in range(2, 7))


def test_complete_graph_flag():
    g = complete_graph(5)
    assert len(g.edges) == 10 and g.params.get("complete")


def test_brickwall_shape():
    g = brickwall_graph(2, 2, 3, 5)
    width = brickwall_row_length(2, 5)
    assert width == 9
    # 3 full rows plus one interior vertex per vertical side
    assert g.n == 3 * width + 5
    assert is_connected(g)


def test_brickwall_b1_2_has_direct_verticals():
    g = brickwall_graph(1, 1, 2, 3)
    width = brickwall_row_length(1, 3)
    assert g.n == 2 * width
    assert g.has_edge(1, 1 + width) and g.has_edge(width, 2 * width)


def test_brickwall_rejects_even_b2():
    with pytest.raises(InvalidParameters):
        brickwall_graph(1, 1, 2, 4)


def test_has_edge_is_symmetric_on_every_family():
    for g in (path_graph(5), grid_graph([2, 3]), tree_graph(2, n=7),
              tree_graph(3, depth=2), star_graph(5), complete_graph(4),
              brickwall_graph(1, 2, 3, 3),
              explicit_graph(4, [(3, 1), (2, 4), (4, 3)])):
        for u in range(1, g.n + 1):
            for v in range(1, g.n + 1):
                want = (min(u, v), max(u, v)) in g.edges
                assert g.has_edge(u, v) == g.has_edge(v, u) == want


def test_shortest_path_endpoints():
    g = grid_graph([3, 3])
    p = shortest_path(g, 1, 9)
    assert p[0] == 1 and p[-1] == 9 and len(p) == 5
    for a, b in zip(p, p[1:]):
        assert g.has_edge(a, b)


def test_build_graph_round_trip():
    for g in (path_graph(4), grid_graph([2, 3]), tree_graph(2, n=6),
              star_graph(5), brickwall_graph(1, 2, 3, 3),
              explicit_graph(3, [(1, 2), (2, 3)])):
        g2 = build_graph(graph_to_json(g))
        assert g2.n == g.n and g2.edges == g.edges and g2.kind == g.kind


def test_build_graph_unknown_kind():
    with pytest.raises(InvalidParameters):
        build_graph({"kind": "torus", "n": 4})


def test_disconnected_graph_is_refused():
    with pytest.raises(DisconnectedGraph, match="2 unreachable vertices"):
        explicit_graph(4, [(1, 2), (3, 4)])


@pytest.mark.parametrize("params", [(1, 1, 3, 3), (2, 2, 3, 5), (3, 2, 4, 3),
                                    (2, 1, 2, 5)])
def test_brickwall_chains_are_the_vertical_sides(params):
    n1, n2, b1, b2 = params
    g = brickwall_graph(*params)
    width = brickwall_row_length(n2, b2)
    rows = (n1 + 1) * width
    chains = brickwall_chains(*params)
    interior = [v for chain in chains.values() for v in chain[1:-1]]
    # the subdivision vertices are numbered after the rows, in key order
    assert interior == list(range(rows + 1, g.n + 1))
    for (gap, col), chain in chains.items():
        assert len(chain) == b1
        assert (chain[0], chain[-1]) == (gap * width + col + 1,
                                         (gap + 1) * width + col + 1)
    # every edge is a row edge or a step along a chain
    row_edges = {(v, v + 1) for r in range(n1 + 1)
                 for v in range(r * width + 1, (r + 1) * width)}
    walked = {tuple(sorted(e)) for chain in chains.values()
              for e in zip(chain, chain[1:])}
    assert g.edges == row_edges | walked


@pytest.mark.parametrize("g", [path_graph(1), path_graph(2), complete_graph(2)],
                         ids=["K1", "P2", "K2"])
def test_vertex_expansion_needs_three_vertices(g):
    with pytest.raises(InvalidParameters, match="needs"):
        vertex_expansion(g)
