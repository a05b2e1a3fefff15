"""Connectivity-respecting circuit primitives.

All builders emit gates only on graph edges and restore every qubit they
borrow: a routed CNOT equals the ideal CNOT as a unitary, so compositions of
these primitives can be reasoned about as if the graph were complete.

`cnot_along` is the one routing sweep: it turns any vertex path into the
nearest-neighbour CNOTs of CNOT(path[0] -> path[-1]).  `route_cnot_gates`
applies it to a shortest path and keeps the gate tuple in the graph's memo,
so every routine that routes on one graph shares its routes, made of the
graph's one gate tuple per directed edge (`g.cx_gates`).
`ladder` is the one shared-control fanout: down a chain of rungs, one
injection, back up.  The target-register CNOT steps of the no-ancilla
diagonals are ladders.
"""

from __future__ import annotations

from .circuit import Circuit
from .graphs import shortest_path


class SingularMatrix(ValueError):
    pass


def cnot_along(path, cx):
    """CNOT(path[0] -> path[-1]) from CNOTs on consecutive path vertices,
    each edge's gate taken from `cx` (directed edge -> gate tuple, the
    `cx_gates` of the path's graph).

    Uses 4d-4 CNOTs for d = len(path) - 1 >= 2 and 1 for d = 1; all
    intermediate qubits are restored, so the net unitary is exactly the
    CNOT between the endpoints.
    """
    d = len(path) - 1
    if d == 0:
        raise ValueError("control equals target")
    hops = [cx[e] for e in zip(path, path[1:])]
    # forward difference sweep, accumulate sweep, then the two restoring
    # sweeps (all but the second empty for d = 1); only q_d keeps the x_0
    # contribution
    sweeps = [*range(d - 1, 0, -1), *range(d), *range(d - 2, 0, -1), *range(d - 1)]
    return [hops[i] for i in sweeps]


def route_cnot_gates(g, u, v):
    """Gate tuple for CNOT(u -> v) routed along a shortest path of g.

    Uses <= 4d(u,v) CNOTs.  The tuple is built once per (u, v) and kept on
    g under ("route", u, v); repeat calls return the same object.  Its
    gates are g's `cx_gates`, so a one-hop route holds its edge's one gate.
    """
    return g.cached(("route", u, v),
                    lambda: tuple(cnot_along(shortest_path(g, u, v), g.cx_gates)))


def ladder(rungs, inject):
    """The gates of a ladder: the rungs (gate lists) from the last to the
    first, then `inject`, then the rungs from the first to the last.  With
    CNOT rungs leading away from the injection, every vertex the ladder
    reaches picks up the bit that `inject` XORs in, and every other value
    is restored because each rung is replayed."""
    return ([gate for rung in reversed(rungs) for gate in rung] + list(inject)
            + [gate for rung in rungs for gate in rung])


def _f2_reduce(mat):
    """Gauss-Jordan over F2; returns the row ops (src, dst) that reduce mat
    to the identity, or raises SingularMatrix."""
    n = len(mat)
    a = [row.copy() for row in mat]
    ops = []

    def add_row(src, dst):
        a[dst] ^= a[src]
        ops.append((src, dst))

    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col]:
                piv = r
                break
        if piv is None:
            raise SingularMatrix(f"rank deficiency at column {col}")
        if piv != col:
            # swap via three row additions
            add_row(piv, col)
            add_row(col, piv)
            add_row(piv, col)
        for r in range(n):
            if r != col and a[r][col]:
                add_row(col, r)
    return ops


def synth_permutation(g, perm):
    """SWAP network realizing |x_1..x_n> -> content of qubit i moves to
    qubit perm[i].  perm is a dict or list (1-based)."""
    if isinstance(perm, dict):
        pm = dict(perm)
    else:
        pm = {i + 1: p for i, p in enumerate(perm)}
    for v in range(1, g.n + 1):
        pm.setdefault(v, v)
    if sorted(pm.values()) != list(range(1, g.n + 1)):
        raise ValueError("not a permutation")
    c = Circuit(g.n)

    def transpose(u, v):
        # exact exchange of the contents of u and v along a shortest path:
        # the down-sweep shifts everything one step, the up-sweep (skipping
        # the last edge) shifts the rest back, leaving only u,v exchanged
        path = shortest_path(g, u, v)
        for a, b in zip(path, path[1:]):
            c.swap(a, b)
        for a, b in list(zip(path, path[1:]))[-2::-1]:
            c.swap(a, b)

    # cycle decomposition; each transposition is exact so order is free
    where = {i: i for i in pm}  # current position of content originating at i
    at = {i: i for i in pm}  # origin of the content currently at a position
    for origin in sorted(pm):
        dest = pm[origin]
        cur = where[origin]
        if cur == dest:
            continue
        other = at[dest]
        transpose(cur, dest)
        at[dest], at[cur] = origin, other
        where[origin], where[other] = dest, cur
    return c
