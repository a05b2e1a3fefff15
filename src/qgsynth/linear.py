"""Connectivity-respecting circuit primitives.

All builders emit gates only on graph edges and restore every qubit they
borrow: a routed CNOT equals the ideal CNOT as a unitary, so compositions of
these primitives can be reasoned about as if the graph were complete.

`cnot_along` is the one routing sweep: it turns any vertex path into the
nearest-neighbour CNOTs of CNOT(path[0] -> path[-1]).  `route_cnot_gates`
applies it to a shortest path and caches the gate tuple on the graph, so
every synthesis routine that routes on one graph shares one route cache.
"""

from __future__ import annotations

import math

from .circuit import Circuit
from .graphs import shortest_path


class NotAPath(ValueError):
    pass


class SingularMatrix(ValueError):
    pass


class OverlappingRegisters(ValueError):
    pass


class InsufficientScratch(ValueError):
    pass


def cnot_along(path):
    """CNOT(path[0] -> path[-1]) from CNOTs on consecutive path vertices.

    Uses 4d-4 CNOTs for d = len(path) - 1 >= 2 and 1 for d = 1; all
    intermediate qubits are restored, so the net unitary is exactly the
    CNOT between the endpoints.
    """
    d = len(path) - 1
    if d == 0:
        raise ValueError("control equals target")
    if d == 1:
        return [("cx", (path[0], path[1]), None)]
    gates = []
    # forward difference sweep, accumulate sweep, then the two restoring
    # sweeps; only q_d keeps the x_0 contribution
    for i in range(d - 1, 0, -1):
        gates.append(("cx", (path[i], path[i + 1]), None))
    for i in range(0, d):
        gates.append(("cx", (path[i], path[i + 1]), None))
    for i in range(d - 2, 0, -1):
        gates.append(("cx", (path[i], path[i + 1]), None))
    for i in range(0, d - 1):
        gates.append(("cx", (path[i], path[i + 1]), None))
    return gates


def route_cnot_gates(g, u, v):
    """Gate tuple for CNOT(u -> v) routed along a shortest path of g.

    Uses <= 4d(u,v) CNOTs.  The tuple is built once per (u, v) and kept in
    the graph's route cache; repeat calls return the same object.
    """
    gates = g._routes.get((u, v))
    if gates is None:
        gates = g._routes[(u, v)] = tuple(cnot_along(shortest_path(g, u, v)))
    return gates


def route_cnot(g, u, v):
    c = Circuit(g.n)
    c.gates.extend(route_cnot_gates(g, u, v))
    return c


def fanout(g, control, targets):
    """XOR the control qubit into every target: |x>|y_1..y_t> ->
    |x>|y_1 + x .. y_t + x>, where control,t_1,..,t_k is a path in g.

    Exactly 2t-1 CNOTs (ladder down, root injection, ladder up)."""
    chain = [control] + list(targets)
    for a, b in zip(chain, chain[1:]):
        if not g.has_edge(a, b):
            raise NotAPath(f"({a},{b}) not an edge")
    c = Circuit(g.n)
    t = len(targets)
    for i in range(t - 1, 0, -1):
        c.cx(targets[i - 1], targets[i])
    c.cx(control, targets[0])
    for i in range(1, t):
        c.cx(targets[i - 1], targets[i])
    return c


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


def copy_register(g, source, sinks, topology="path"):
    """Copy an nb-bit register into t disjoint sink registers:
    |y>|0..0> -> |y>|y>^t.

    For the path topology, blocks form a chained pipeline (block k copies
    from block k-1) emitted in the staggered schedule where bit nb starts
    first; the scheduled layer count nb + t - 1 is recorded as
    circuit.meta['pipeline_depth'].  For grid/tree topologies blocks copy
    from block floor(k/2) (recursive doubling).  Every CNOT is routed.
    """
    nb = len(source)
    t = len(sinks)
    regs = [tuple(source)] + [tuple(s) for s in sinks]
    seen = set()
    for reg in regs:
        if len(reg) != nb:
            raise OverlappingRegisters("register length mismatch")
        for v in reg:
            if v in seen:
                raise OverlappingRegisters(f"vertex {v} reused")
            seen.add(v)
    c = Circuit(g.n)
    if t == 0 or nb == 0:
        c.meta["pipeline_depth"] = 0
        return c
    if topology == "path":
        # staggered pipeline: gate (block k, bit i) at layer (nb - i) + k
        for layer in range(1, nb + t):
            for k in range(1, t + 1):
                i = nb - layer + k  # 1-based bit index
                if 1 <= i <= nb:
                    c.gates.extend(
                        route_cnot_gates(g, regs[k - 1][i - 1], regs[k][i - 1])
                    )
        c.meta["pipeline_depth"] = nb + t - 1
    else:
        # recursive doubling: block k sources from block k//2
        order = sorted(range(1, t + 1), key=lambda k: k.bit_length())
        for k in order:
            src = regs[k // 2]
            for i in range(nb):
                c.gates.extend(route_cnot_gates(g, src[i], regs[k][i]))
        c.meta["pipeline_depth"] = None
    return c


_T = math.pi / 4


def _toffoli_gates(g, a, b, t):
    """Routed standard Toffoli(a, b -> t) decomposition."""
    c = Circuit(g.n)
    rc = lambda u, v: c.gates.extend(route_cnot_gates(g, u, v))
    c.h(t)
    rc(b, t)
    c.r(t, -_T)
    rc(a, t)
    c.r(t, _T)
    rc(b, t)
    c.r(t, -_T)
    rc(a, t)
    c.r(b, _T)
    c.r(t, _T)
    c.h(t)
    rc(a, b)
    c.r(a, _T)
    c.r(b, -_T)
    rc(a, b)
    return c.gates


def multi_controlled_x(g, controls, pattern, target, scratch=()):
    """Flip `target` iff the control qubits read exactly `pattern`
    (a bit string over the controls, in order).  Uses |controls|-2 borrowed
    scratch qubits (any state, restored) for >= 3 controls."""
    controls = list(controls)
    k = len(controls)
    if len(pattern) != k:
        raise ValueError("pattern length mismatch")
    scratch = [s for s in scratch if s != target and s not in controls]
    c = Circuit(g.n)
    zeros = [q for q, bit in zip(controls, pattern) if bit == "0"]
    for q in zeros:
        c.x(q)
    if k == 0:
        c.x(target)
    elif k == 1:
        c.gates.extend(route_cnot_gates(g, controls[0], target))
    elif k == 2:
        c.gates.extend(_toffoli_gates(g, controls[0], controls[1], target))
    else:
        need = k - 2
        if len(scratch) < need:
            raise InsufficientScratch(f"need {need} scratch, have {len(scratch)}")
        d = scratch[:need]
        # borrowed-scratch V-chain, applied twice so dirty scratch cancels
        stair = [(controls[k - 1], d[need - 1], target)]
        for j in range(k - 2, 1, -1):
            stair.append((controls[j], d[j - 2], d[j - 1]))
        half = stair + [(controls[0], controls[1], d[0])] + stair[1:][::-1]
        for a, b, t in half + half:
            c.gates.extend(_toffoli_gates(g, a, b, t))
    for q in zeros:
        c.x(q)
    return c
