"""Constraint graphs: construction, queries, expansion, cascades.

Vertices are 1-based integers.  A graph is immutable after construction and
carries a `kind` tag (path/grid/tree/star/brickwall/explicit) plus the
parameters it was built from, which the synthesis backends dispatch on.

What the compiler derives from a graph alone (routes, diagonal and cascade
templates, the vertex expansion) is built once and kept in the graph's one
memo, `ConstraintGraph.cached`; nothing is kept at module level.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction


class DisconnectedGraph(ValueError):
    pass


class InvalidParameters(ValueError):
    pass


class TooLargeForExactExpansion(ValueError):
    pass


class GrowthStalled(RuntimeError):
    pass


@dataclass(frozen=True)
class ConstraintGraph:
    n: int
    edges: frozenset  # frozenset of (u, v) tuples with u < v
    kind: str = "explicit"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        adj = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            if u == v:
                raise InvalidParameters(f"self-loop at {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise InvalidParameters(f"edge ({u},{v}) out of range")
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_adj", {v: tuple(sorted(s)) for v, s in adj.items()})
        object.__setattr__(
            self, "_pairs", frozenset(self.edges | {(v, u) for u, v in self.edges})
        )
        # the per-graph memo behind `cached`; it dies with the graph
        object.__setattr__(self, "_memo", {})
        if self.n > 0:
            reached = len(self.bfs_dist(1))
            if reached != self.n:
                raise DisconnectedGraph(f"{self.n - reached} unreachable vertices")

    def cached(self, key, build):
        """The object kept on this graph under `key`, built by `build()` on
        first use.  Everything that depends on the graph alone is kept here:
        routed CNOTs ("route", u, v), diagonal templates ("auto", n, m),
        ("noancilla", strategy), ("ancilla", n, m) and ("expander", n,
        sets, matchings), the relabelled QSP host ("host",) and its qubit
        map ("relabel",), cascade templates ("cascade", *key) and the
        vertex expansion ("expansion",).  A
        template carries its own gate scan and simulation plan.  Angles,
        circuits and reports are never kept."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def neighbors(self, v):
        return self._adj[v]

    def has_edge(self, u, v):
        return (u, v) in self._pairs

    def bfs_dist(self, src):
        """Distances from src to every vertex."""
        dist = {src: 0}
        q = deque([src])
        while q:
            u = q.popleft()
            for w in self._adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return dist

    def center(self):
        """A vertex of minimum eccentricity (lowest index on ties)."""
        best, best_ecc = 1, None
        for v in range(1, self.n + 1):
            ecc = max(self.bfs_dist(v).values())
            if best_ecc is None or ecc < best_ecc:
                best, best_ecc = v, ecc
        return best


def _norm_edge(u, v):
    return (u, v) if u < v else (v, u)


def path_graph(n):
    if n < 1:
        raise InvalidParameters("path needs n >= 1")
    edges = frozenset((i, i + 1) for i in range(1, n))
    return ConstraintGraph(n, edges, "path", {"n": n})


def grid_vertex(dims, coords):
    """Row-major linearization, 1-based."""
    idx = 0
    for d, c in zip(dims, coords):
        idx = idx * d + c
    return idx + 1


def grid_graph(dims):
    if not dims or any(d < 1 for d in dims):
        raise InvalidParameters("grid dims must be positive")
    n = 1
    for d in dims:
        n *= d
    edges = set()

    def rec(coords):
        if len(coords) == len(dims):
            u = grid_vertex(dims, coords)
            for ax in range(len(dims)):
                if coords[ax] + 1 < dims[ax]:
                    nb = list(coords)
                    nb[ax] += 1
                    edges.add(_norm_edge(u, grid_vertex(dims, nb)))
            return
        for c in range(dims[len(coords)]):
            rec(coords + [c])

    rec([])
    return ConstraintGraph(n, frozenset(edges), "grid", {"dims": list(dims)})


def tree_graph(arity, depth=None, n=None):
    """Complete d-ary tree, heap-indexed: children of v are d(v-1)+2 .. dv+1.

    Either `depth` (complete tree with that many levels below the root) or a
    vertex count `n` (tree truncated to n vertices) must be given.
    """
    if arity < 2:
        raise InvalidParameters("tree arity must be >= 2")
    if n is None:
        if depth is None:
            raise InvalidParameters("tree needs depth or n")
        n = sum(arity**i for i in range(depth + 1))
    edges = set()
    for v in range(2, n + 1):
        parent = (v - 2) // arity + 1
        edges.add(_norm_edge(parent, v))
    return ConstraintGraph(n, frozenset(edges), "tree", {"arity": arity, "n": n})


def star_graph(n):
    if n < 2:
        raise InvalidParameters("star needs n >= 2")
    edges = frozenset((1, v) for v in range(2, n + 1))
    return ConstraintGraph(n, edges, "star", {"n": n})


def complete_graph(n):
    edges = frozenset(
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
    )
    return ConstraintGraph(n, edges, "explicit", {"n": n, "complete": True})


def brickwall_row_length(n2, b2):
    return n2 * (b2 - 1) + 1


def brickwall_vertical_columns(gap, n1, n2, b2):
    """Columns (0-based) of the through-wall vertical edges in a given gap."""
    w = b2 - 1
    if gap % 2 == 0:
        return [k * w for k in range(n2 + 1)]
    return [w // 2 + k * w for k in range(n2)]


def brickwall_chains(n1, n2, b1, b2):
    """The vertical brick sides, keyed by (gap, column): each a vertex chain
    from row `gap` to row gap + 1 through b1 - 2 subdivision vertices,
    which are numbered after the rows in key order."""
    width = brickwall_row_length(n2, b2)
    chains = {}
    nxt = (n1 + 1) * width + 1
    for gap in range(n1):
        for col in brickwall_vertical_columns(gap, n1, n2, b2):
            chains[(gap, col)] = [gap * width + col + 1,
                                  *range(nxt, nxt + b1 - 2),
                                  (gap + 1) * width + col + 1]
            nxt += b1 - 2
    return chains


def brickwall_graph(n1, n2, b1, b2):
    """Layered brick lattice: n1 layers of n2 bricks; each brick has b2
    vertices per horizontal side and b1 per vertical side (endpoints
    included).  Rows are numbered first (row-major), then the interior
    vertices of the vertical sides."""
    if n1 < 1 or n2 < 1 or b1 < 2 or b2 < 3 or b2 % 2 == 0:
        raise InvalidParameters("brickwall needs n1,n2>=1, b1>=2, b2>=3 odd")
    width = brickwall_row_length(n2, b2)
    chains = brickwall_chains(n1, n2, b1, b2)
    edges = {(v, v + 1) for r in range(n1 + 1)
             for v in range(r * width + 1, (r + 1) * width)}
    edges.update(_norm_edge(a, b) for chain in chains.values()
                 for a, b in zip(chain, chain[1:]))
    return ConstraintGraph(
        (n1 + 1) * width + len(chains) * (b1 - 2),
        frozenset(edges),
        "brickwall",
        {"n1": n1, "n2": n2, "b1": b1, "b2": b2},
    )


def explicit_graph(n, edges):
    e = frozenset(_norm_edge(u, v) for u, v in edges)
    return ConstraintGraph(n, e, "explicit", {"n": n})


def build_graph(spec):
    """Build a graph from its JSON-style descriptor (see file format docs)."""
    kind = spec.get("kind")
    if kind == "path":
        return path_graph(spec["n"])
    if kind == "grid":
        return grid_graph(spec["dims"])
    if kind == "tree":
        return tree_graph(spec["arity"], depth=spec.get("depth"), n=spec.get("n"))
    if kind == "star":
        return star_graph(spec["n"])
    if kind == "brickwall":
        return brickwall_graph(spec["n1"], spec["n2"], spec["b1"], spec["b2"])
    if kind == "explicit":
        return explicit_graph(spec["n"], spec["edges"])
    raise InvalidParameters(f"unknown graph kind {kind!r}")


def graph_to_json(g):
    d = {"kind": g.kind}
    d.update(g.params)
    if g.kind == "explicit":
        d["edges"] = sorted([list(e) for e in g.edges])
    return d


def shortest_path(g, u, v):
    """A minimum-length u..v vertex path (BFS; lowest-index tie-break)."""
    if not (1 <= u <= g.n and 1 <= v <= g.n):
        raise InvalidParameters(f"vertex out of range: {u}, {v}")
    if u == v:
        return [u]
    prev = {u: None}
    q = deque([u])
    while q:
        a = q.popleft()
        for w in g.neighbors(a):
            if w not in prev:
                prev[w] = a
                if w == v:
                    q.clear()
                    break
                q.append(w)
    path = [v]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


def vertex_expansion(g):
    """Exact vertex expansion min_{0<|S|<n/2} |boundary(S)|/|S| (brute force;
    closed form for complete graphs), kept on g.  Below 3 vertices no S
    qualifies, so the expansion is undefined."""
    if g.n > 24:
        raise TooLargeForExactExpansion(f"|V|={g.n} > 24")
    if g.n < 3:
        raise InvalidParameters(f"vertex expansion needs |V| >= 3, got {g.n}")
    return g.cached(("expansion",), lambda: _expansion(g))


def _expansion(g):
    n = g.n
    if len(g._pairs) == n * (n - 1):
        # complete graph: every outside vertex is a boundary vertex, so the
        # minimum ratio is reached by the largest admissible S
        k = (n + 1) // 2 - 1
        return Fraction(n - k, k)
    nbr_mask = [0] * (n + 1)
    for v in range(1, n + 1):
        m = 0
        for w in g.neighbors(v):
            m |= 1 << (w - 1)
        nbr_mask[v] = m
    best_num, best_den = None, 1
    for s in range(1, 1 << n):
        size = s.bit_count()
        if 2 * size >= n:
            continue
        out = 0
        t = s
        while t:
            v = t.bit_length()
            out |= nbr_mask[v]
            t &= ~(1 << (v - 1))
        num = (out & ~s).bit_count()
        if best_num is None or num * best_den < best_num * size:
            best_num, best_den = num, size
    return Fraction(best_num, best_den)


@dataclass
class ExpanderCascade:
    sets: list  # S_1 subset ... subset S_ell (each a sorted tuple)
    matchings: list  # matching edge lists, one endpoint in S_i, one outside

    @property
    def length(self):
        return len(self.sets)


def expander_cascade(g, seed_size, target_size):
    """Grow S_1 (lexicographically-first seed) by maximal matchings into the
    outer boundary until |S| >= target_size."""
    if seed_size < 1 or target_size > g.n // 2 or target_size < seed_size:
        raise InvalidParameters("bad cascade sizes")
    S = set(range(1, seed_size + 1))
    sets = [tuple(sorted(S))]
    matchings = []
    while len(S) < target_size:
        boundary = set()
        for v in S:
            boundary.update(w for w in g.neighbors(v) if w not in S)
        matched_b, matched_s, m = set(), set(), []
        for v in sorted(boundary):
            for u in g.neighbors(v):
                if u in S and u not in matched_s:
                    matched_s.add(u)
                    matched_b.add(v)
                    m.append((u, v))
                    break
        if not matched_b:
            raise GrowthStalled(f"no outward growth at |S|={len(S)}")
        matchings.append(m)
        S |= matched_b
        sets.append(tuple(sorted(S)))
    return ExpanderCascade(sets, matchings)


def hamiltonian_path_grid(dims):
    """Boustrophedon vertex order covering the grid, consecutive = adjacent."""

    def rec(ds):
        if len(ds) == 1:
            return [[c] for c in range(ds[0])]
        inner = rec(ds[1:])
        out = []
        for c in range(ds[0]):
            block = inner if c % 2 == 0 else inner[::-1]
            out.extend([c] + b for b in block)
        return out

    return [grid_vertex(dims, c) for c in rec(list(dims))]


def dfs_order(g):
    """Vertices of g in depth-first preorder from vertex 1, smaller
    neighbours first; a vertex is claimed when it is first pushed.  On a
    heap-labelled binary tree this visits child 2v before 2v+1."""
    order = []
    stack = [1]
    seen = {1}
    while stack:
        v = stack.pop()
        order.append(v)
        for w in sorted(g.neighbors(v), reverse=True):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return order


def dfs_labeling(g):
    """The `dfs_order` of g labelled in reverse (first-visited vertex gets
    label n), so consecutive labels are close in the DFS spanning tree:
    sum_i dist_T(i, i+1) <= 2(n-1).

    Returns the labels, a dict vertex -> label.
    """
    return {v: g.n - i for i, v in enumerate(dfs_order(g))}
