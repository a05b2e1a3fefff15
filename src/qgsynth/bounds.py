"""Circuit transformation between constraint graphs and lower-bound analysis.

Three pieces live here: an edge-bridge mechanism that rewrites a circuit
valid on a denser graph into one valid on a sparser graph by routing the
extra CNOTs along vertex-disjoint host paths, the brick-wall-to-grid
embedding built on that mechanism, and the lightcone (reachable-subset)
analyzer, which reads a circuit's layers straight from its gate list,
with the closed-form depth lower bounds it supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .circuit import Circuit, TWO_QUBIT
from .graphs import (brickwall_chains, brickwall_row_length,
                     brickwall_vertical_columns, grid_graph)
from .linear import cnot_along


class BridgeInvalid(ValueError):
    pass


@dataclass
class EdgeBridge:
    """Extra edges grouped into classes E_1..E_c, each edge carrying a host
    path; within a class the paths are vertex-disjoint, so a layer of CNOTs
    on one class routes in parallel.

    `contracted` holds a separate globally-disjoint family (used for edges
    that are plain paths in the target graph, e.g. the subdivided vertical
    sides of a brick wall); it is routed like a class but not counted in c.
    """

    classes: list = field(default_factory=list)  # list[dict[edge, path]]
    contracted: dict = field(default_factory=dict)  # edge -> path

    @property
    def c(self):
        return len(self.classes)

    @property
    def c_prime(self):
        longest = 1
        for group in self.all_groups():
            for path in group.values():
                longest = max(longest, len(path) - 1)
        return longest

    def all_groups(self):
        return list(self.classes) + ([self.contracted] if self.contracted
                                     else [])

    def edge_paths(self):
        out = {}
        for group in self.all_groups():
            for (u, v), path in group.items():
                out[_norm(u, v)] = path
        return out

    def validate(self, g):
        seen_edges = set()
        for group in self.all_groups():
            used = set()
            for (u, v), path in group.items():
                e = _norm(u, v)
                if e in seen_edges:
                    raise BridgeInvalid(f"edge {e} listed twice")
                seen_edges.add(e)
                if {path[0], path[-1]} != {u, v}:
                    raise BridgeInvalid(f"path for {e} has wrong endpoints")
                for a, b in zip(path, path[1:]):
                    if not g.has_edge(a, b):
                        raise BridgeInvalid(
                            f"path for {e} uses non-edge ({a},{b})"
                        )
                if used & set(path):
                    raise BridgeInvalid(
                        f"paths in one class share vertices near {e}"
                    )
                used |= set(path)


def _norm(u, v):
    return (u, v) if u < v else (v, u)


def transform_circuit(c, g, gp, bridge):
    """Rewrite a circuit valid under gp into one valid under g.

    gp's edges must be g's edges plus the bridged edges; every CNOT on a
    bridged edge is replaced by a routed CNOT along its host path, which
    keeps the unitary exact.  The depth grows by at most a factor
    1 + 4 c' c over the layered depth of the input, the number of ASAP
    layers of its CNOTs alone (a SWAP as 3).
    """
    bridge.validate(g)
    paths = bridge.edge_paths()
    for u, v in paths:
        if not gp.has_edge(u, v):
            raise BridgeInvalid(f"bridged edge ({u},{v}) is not in gp")
    out = Circuit(g.n)
    out.ancilla = c.ancilla
    for name, qs, p in c.expanded().gates:
        if name in TWO_QUBIT:
            u, v = qs
            if g.has_edge(u, v):
                out.gates.append((name, qs, p))
                continue
            key = _norm(u, v)
            if key not in paths:
                raise BridgeInvalid(
                    f"gate on ({u},{v}) is neither a g-edge nor bridged"
                )
            path = paths[key]
            if path[0] != u:
                path = path[::-1]
            out.gates.extend(cnot_along(path, g.cx_gates))
        else:
            out.gates.append((name, qs, p))
    out.meta["bridge_classes"] = bridge.c
    out.meta["bridge_c_prime"] = bridge.c_prime
    return out


def brickwall_embedding(bw):
    """(grid, bridge): the 2-D grid supergraph of a brick wall and the
    bridge that undoes it.

    Grid vertex i is brick-wall vertex i, one per row vertex (the
    subdivision vertices of the vertical sides only serve routing).
    Missing vertical edges are grouped by (gap parity, brick parity, offset)
    into at most 4(b2-2) classes, each edge routed through the nearest
    vertical side of its brick; grid verticals that exist as subdivided
    sides go into the contracted family.
    """
    if bw.kind != "brickwall":
        raise ValueError("expected a brickwall graph")
    n1, n2 = bw.params["n1"], bw.params["n2"]
    b1, b2 = bw.params["b1"], bw.params["b2"]
    w = b2 - 1
    width = brickwall_row_length(n2, b2)
    grid = grid_graph([n1 + 1, width])

    def row_v(r, c):
        return r * width + c + 1

    chains = brickwall_chains(n1, n2, b1, b2)
    classes = {}
    contracted = {}
    for gap in range(n1):
        through = set(brickwall_vertical_columns(gap, n1, n2, b2))
        shift = 0 if gap % 2 == 0 else w // 2
        for col in range(width):
            edge = (row_v(gap, col), row_v(gap + 1, col))
            if col in through:
                if b1 == 2:
                    continue  # a real brick-wall edge, nothing to bridge
                contracted[edge] = chains[(gap, col)]
                continue
            brick = (col - shift) // w  # -1 for the odd-row left half-brick
            off = col - shift - brick * w
            if off <= w // 2 and brick >= 0:
                side = shift + brick * w  # nearest side is on the left
            else:
                side = shift + (brick + 1) * w
            hop = range(col + 1, side + 1) if side > col \
                else range(col - 1, side - 1, -1)
            path = [row_v(gap, col)]
            path += [row_v(gap, c2) for c2 in hop]
            path += chains[(gap, side)][1:-1]
            path += [row_v(gap + 1, c2) for c2 in hop][::-1]
            path.append(row_v(gap + 1, col))
            key = (gap % 2, brick % 2, off)
            classes.setdefault(key, {})[edge] = path
    bridge = EdgeBridge(
        classes=[classes[k] for k in sorted(classes)],
        contracted=contracted,
    )
    bridge.validate(bw)
    return grid, bridge


# -- lightcone analysis -----------------------------------------------------

@dataclass
class LightconeProfile:
    """Backward-reachable qubit subsets S'_1..S'_{d+1} of the layered
    circuit digraph (inputs sit in the last layer; edges run backwards in
    time, four per CNOT, one per persisted wire)."""

    sets: list  # S'_1 .. S'_{d+1} as frozensets of qubit indices

    @property
    def budget(self):
        return sum(len(s) for s in self.sets[:-1])


def lightcone_profile(c, n_inputs):
    """Reachable subsets of circuit c, counting qubits 1..n_inputs as the
    inputs.  One pass over the gates (a SWAP as 3 CNOTs) layers the CNOTs
    ASAP; slot i holds the qubits with one-qubit gates just before their
    CNOT in layer i, the last slot those with gates after their last CNOT.

    Layer 2i+1 is slot i, layer 2i the i-th CNOT layer; a wire edge
    persists from the first single-qubit gate on that qubit onward, and a
    CNOT connects both its qubits to both successors.
    """
    last = [0] * (c.n + 1)  # CNOT layers so far on each qubit
    pending = set()  # qubits with one-qubit gates since their last CNOT
    slots, cnot_layers = [set()], []
    for _, qs, _ in c.expanded().gates:
        if len(qs) == 1:
            pending.add(qs[0])
            continue
        lay = max(last[qs[0]], last[qs[1]])
        if lay == len(cnot_layers):
            cnot_layers.append([])
            slots.append(set())
        cnot_layers[lay].append(qs)
        for q in qs:
            if q in pending:
                pending.remove(q)
                slots[lay].add(q)
            last[q] = lay + 1
    slots[-1] |= pending

    d_total = 2 * len(cnot_layers) + 1
    first1q = {}
    for i, layer in enumerate(slots):
        for q in layer:
            first1q.setdefault(q, 2 * i + 1)

    def acting(layer):
        """qubits acted on in 1-based digraph layer `layer`"""
        if layer % 2 == 1:
            return slots[(layer - 1) // 2]
        return {q for qs in cnot_layers[layer // 2 - 1] for q in qs}

    reached = set(range(1, n_inputs + 1))
    layer_sets = [None] * (d_total + 1)
    layer_sets[d_total] = frozenset(range(1, n_inputs + 1))
    for layer in range(d_total, 0, -1):
        nxt = set()
        for j in reached:
            if first1q.get(j, d_total + 2) <= layer:
                nxt.add(j)
        if layer % 2 == 0:
            for a, b in cnot_layers[layer // 2 - 1]:
                if a in reached or b in reached:
                    nxt.add(a)
                    nxt.add(b)
        layer_sets[layer - 1] = frozenset(nxt & acting(layer))
        reached = nxt
    return LightconeProfile(sets=layer_sets)


TASK_DIMENSION = {"qsp": 2, "diag": 2, "gus": 4}


def lightcone_budget_check(c, task, n):
    """Necessary-condition audit: the lightcone budget of a circuit that
    prepares an n-qubit state / diagonal / unitary must be at least
    2^n - 1 (or 4^n - 1).  Constant factors are dropped, which makes this
    a weaker check than the underlying dimension bound."""
    if not 1 <= n <= c.n:
        raise ValueError(f"n = {n} is not in 1..{c.n}, the circuit's qubits")
    base = TASK_DIMENSION[task]
    profile = lightcone_profile(c, n)
    required = base**n - 1
    budget = profile.budget
    return budget, required, budget >= required


def max_matching_size(g):
    """nu(G), the size of a maximum matching of g: Edmonds' blossom
    algorithm (Edmonds, "Paths, trees, and flowers", 1965), started from a
    greedy matching in edge order.  A free vertex with no augmenting path
    never gets one later, so one search per free vertex suffices."""
    mate = {}
    for u, v in sorted(g.edges):
        if u not in mate and v not in mate:
            mate[u], mate[v] = v, u
    for root in range(1, g.n + 1):
        if root not in mate:
            _augment(g, mate, root)
    return len(mate) // 2


def _augment(g, mate, root):
    """Grow an alternating tree from the free vertex root, shrinking each
    odd cycle (blossom) into its base, and flip the first augmenting path
    it finds in mate."""
    base = {}  # vertex -> the base of the blossom it was shrunk into
    parent = {}  # inner vertex -> the outer vertex it was reached from
    outer, queue = {root}, [root]

    def top(v):
        return base.get(v, v)

    def lca(a, b):
        """The base where the tree paths up from a and b first meet."""
        seen = {top(a)}
        while top(a) in mate:  # up to the root, the one free vertex
            a = parent[mate[top(a)]]
            seen.add(top(a))
        while top(b) not in seen:
            b = parent[mate[top(b)]]
        return top(b)

    def mark(v, b, child, blossom):
        """Collect the bases from v up to the blossom base b, pointing the
        inner vertices on the way at their other side of the cycle."""
        while top(v) != b:
            blossom.update((top(v), top(mate[v])))
            parent[v] = child
            child = mate[v]
            v = parent[child]

    for u in queue:  # grows while it is walked
        for w in g.neighbors(u):
            if top(u) == top(w) or mate.get(u) == w:
                continue
            if w in outer:  # an odd cycle: shrink it
                b, blossom = lca(u, w), set()
                mark(u, b, w, blossom)
                mark(w, b, u, blossom)
                for v in [*outer, *parent]:  # the tree's vertices
                    if top(v) in blossom:
                        base[v] = b
                        if v not in outer:
                            outer.add(v)
                            queue.append(v)
            elif w not in parent:
                parent[w] = u
                if w not in mate:  # augmenting path root .. u, w: flip it
                    while w is not None:
                        v = parent[w]
                        mate[w], mate[v], w = v, w, mate.get(v)
                    return
                outer.add(mate[w])
                queue.append(mate[w])


def depth_lower_bound(g, task, n, m):
    """Evaluate every applicable closed-form depth lower bound for the
    graph kind and return {"terms", "max", "nu", "note"}.

    All values are asymptotic-form evaluations with constants set to 1;
    they order-bound the depth but carry no exact constant.
    """
    if task not in TASK_DIMENSION:
        raise ValueError(f"unknown task {task!r}")
    if not 1 <= n <= g.n:
        raise ValueError(f"n = {n} is not in 1..{g.n}, the graph's vertices")
    if m != g.n - n:
        raise ValueError("m must equal |V| - n")
    base = TASK_DIMENSION[task]
    big = float(base) ** n
    nu = max_matching_size(g)
    terms = {"input_count": float(n), "ancilla_volume": big / (n + m)}
    if nu:  # a one-vertex graph has no edge, so no CNOT to count
        terms["matching"] = big / nu
    dims = None
    if g.kind == "path":
        dims = [g.n]
    elif g.kind == "grid":
        dims = sorted(g.params["dims"], reverse=True)
    elif g.kind == "brickwall":
        n1, n2 = g.params["n1"], g.params["n2"]
        terms["brickwall"] = big ** 0.5 / math.sqrt(min(n1, n2))
        dims = sorted(
            [n1 + 1, brickwall_row_length(n2, g.params["b2"])], reverse=True
        )
    if dims is not None:
        d = len(dims)
        terms["grid_saturation"] = float(base) ** (n / (d + 1))
        for j in range(1, d + 1):
            tail = 1.0
            for ni in dims[j - 1:]:
                tail *= ni
            terms[f"grid_dim_{j}"] = (big ** (1.0 / j)) / (tail ** (1.0 / j))
    if g.kind == "tree":
        # Constant 1/2 keeps the arity dependence visible while staying
        # below the measured depth of the smallest instances.
        terms["tree"] = 0.5 * g.params["arity"] * big / (n + m)
    if g.kind == "star":
        terms["star"] = big
    return {
        "task": task,
        "n": n,
        "m": m,
        "nu": nu,
        "terms": terms,
        "max": max(terms.values()),
        "note": "asymptotic-form values, constants = 1",
    }
