"""Ancilla-assisted synthesis of diagonal unitaries on constrained graphs.

The main pipeline splits the phase function theta(x) = sum_s alpha_s <s,x>
by suffix: with p suffix bits, 2^p borrowed target qubits each track one
suffix pattern t_k, and a Gray cycle over the 2^{n-p} prefixes visits every
nonzero s exactly once.  Five stages, each marked on the one circuit:
suffix-copy, gray-init, prefix-copy, gray-cycle, inverse.  A layout keeps
the inputs on 1..n and splits the ancilla into blocks of copy, target and
aux slots; it exists for paths, grids (along a Hamiltonian path) and binary
trees (subtree blocks, or a depth-first line on shallow trees).  Every copy
stage is one loop that fills slots from the nearest holder of each bit, and
the inverse replays the copies backwards.  Expanders use a 3-stage variant
(gray-init, gray-cycle, inverse) that re-fans single bits through the
matching cascade instead of keeping copies.  `synth_diag_auto`
builds the no-ancilla strategies of diag.py (on a path the general split
too) and the pipeline on a ladder of m, m//2, m//4, ... ancilla, and keeps
the shallowest; the expander variant has its own entry point only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Template
from .diag import DiagonalSpec, _as_spec, _check_ancilla, _compile, _dispatch
from .graphs import (
    GrowthStalled,
    dfs_order,
    explicit_graph,
    hamiltonian_path_grid,
    path_graph,
    star_graph,
    tree_graph,
)
from .gray import gray_code, solve_phase_coefficients
from .linear import route_cnot_gates, synth_permutation


class InsufficientAncilla(ValueError):
    """Too few (or unusably placed) ancilla qubits for the requested layout."""


@dataclass
class SubRegister:
    """One block R_q of the ancilla region.

    copy_slots hold repeated copies of input bits (suffix bits during the
    suffix-copy stage, prefix bits afterwards), targ_slots hold the running
    parities <s(j,k), x>, aux_slots hold extra copies of the low prefix bits
    so that frequent Gray-cycle CNOTs stay short.
    """

    copy_slots: list
    targ_slots: list
    aux_slots: list


@dataclass
class RegisterLayout:
    """Inputs on 1..n and the ancilla blocks that hold the 2^p targets; no
    vertex is in two slots."""

    n: int
    p: int
    tau: int
    ell_plan: list  # Gray-code index for each target, length 2^p
    sub_registers: list  # SubRegister blocks
    kind: str = ""
    wasted: int = 0

    def __post_init__(self):
        slots = [*range(1, self.n + 1)]
        for b in self.sub_registers:
            slots += b.copy_slots + b.targ_slots + b.aux_slots
        if len(set(slots)) != len(slots):
            raise ValueError("a vertex in two slots")
        if len(self.r_targ) != 1 << self.p:
            raise ValueError("target register must have 2^p qubits")
        if len(self.ell_plan) != 1 << self.p:
            raise ValueError("ell_plan length mismatch")

    @property
    def r_targ(self):
        """The 2^p target vertices, block by block; index k-1 is target k."""
        return [v for b in self.sub_registers for v in b.targ_slots]


def _aux_width(n_pre):
    """Cutoff tau: bits x_1..x_tau get dedicated nearby copies."""
    if n_pre < 2:
        return 0
    return min(2 * math.ceil(math.log2(n_pre)), n_pre)


def _blocks_on_line(order, n, m, p0):
    """Greedy placement of R_1..R_r along `order` (ancilla vertices in line
    order): per block, n-p alternating copy/target pairs then tau aux slots.
    Returns (p, tau, blocks); shrinks p (and then tau, possibly to 0)
    until the blocks fit."""
    # p <= n - p: a block's n - p copy slots then hold every suffix bit
    for p in range(min(p0, n // 2), 0, -1):
        npf = n - p
        r = -(-(1 << p) // npf)
        if 2 * r * npf <= m:
            tau = min(_aux_width(npf), max(0, m // r - 2 * npf))
            break
    else:
        raise InsufficientAncilla("no block arrangement fits")
    npf = n - p
    width = 2 * npf + tau
    blocks = []
    for q in range(r):
        seg = order[q * width:(q + 1) * width]
        # the first 2^p target slots, block by block
        free = max(0, (1 << p) - q * npf)
        blocks.append(SubRegister(seg[:2 * npf:2], seg[1:2 * npf:2][:free],
                                  seg[2 * npf:]))
    return p, tau, blocks


def _line_layout(n, m, order, kind):
    """Blocks along the ancilla vertices n+1..n+m of `order`, inputs on
    1..n.  At most 2^p0 targets, p0 = log2(m / c) with m clipped to
    2c..c 2^n: c = 18 ancilla per target on a grid, 3 on other lines."""
    c = 18 if kind == "grid" else 3
    p0 = int(math.log2(max(2 * c, min(m, c << n)) / c))
    line = [v for v in order if n < v <= n + m]
    p, tau, blocks = _blocks_on_line(line, n, m, p0)
    npf = n - p
    return RegisterLayout(n, p, tau, [k % npf + 1 for k in range(1 << p)],
                          blocks, kind, m - (2 * npf + tau) * len(blocks))


def _tree_layout(n, m):
    # heap labels: children of v are 2v, 2v+1; depth of v is bitlength-1.
    # The layout lives on the heap prefix 1..n+m, itself a binary tree.
    size = n + m
    kappa = math.ceil(math.log2(n + 1)) - 1
    d_total = size.bit_length() - 1  # deepest fully-present level
    b0 = max(1, math.ceil(math.log2(max(2.0, 2 * math.log2(n)))))
    roots = []
    for b in range(b0, 0, -1):
        span = kappa + b + 1
        roots = []
        depth = d_total - span + 1
        while depth >= kappa + 1:
            level = [v for v in range(1 << depth, 1 << (depth + 1))
                     if (v + 1) << (span - 1) <= size + 1]
            roots.extend(level)
            depth -= span
        if roots:
            copy_layers = range(kappa + 1)
            targ_layer = kappa + 1
            aux_layers = range(kappa + 2, kappa + b + 1)
            break
    else:
        # small-instance tier: one layer of subtrees directly below the
        # input region, last layer as targets, no dedicated aux copies
        span = d_total - kappa
        if span < 2:
            raise InsufficientAncilla("tree too shallow for a subtree layout")
        b = 1
        roots = [v for v in range(1 << (kappa + 1), 1 << (kappa + 2))
                 if (v + 1) << (span - 1) <= size + 1]
        if not roots:
            raise InsufficientAncilla("tree too shallow for a subtree layout")
        copy_layers = range(span - 1)
        targ_layer = span - 1
        aux_layers = range(0)

    def level_of(z, rel):
        return list(range(z << rel, (z << rel) + (1 << rel)))

    # every root has 2^targ_layer >= 2 target slots and n >= 2, so p >= 1
    p = min(int(math.log2(len(roots) << targ_layer)), n - 1)
    tau = min((1 << b) - 2, n - p) if len(aux_layers) else 0
    blocks = []
    for i, z in enumerate(roots):
        # the first 2^p target slots, root by root
        free = max(0, (1 << p) - (i << targ_layer))
        blocks.append(SubRegister(
            [v for rel in copy_layers for v in level_of(z, rel)],
            level_of(z, targ_layer)[:free],
            [v for rel in aux_layers for v in level_of(z, rel)]))
    used = sum(len(b.copy_slots) + len(b.targ_slots) + len(b.aux_slots)
               for b in blocks)
    return RegisterLayout(n, p, tau, [1] * (1 << p), blocks, "tree", m - used)


def build_layout(g, n, m):
    """Register layout for the 5-stage pipeline on g: n inputs on 1..n, m
    ancilla among n+1..n+m."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n + m > g.n:
        raise ValueError("graph has fewer than n + m vertices")
    if g.kind == "path":
        return _line_layout(n, m, list(range(1, n + m + 1)), "path")
    if g.kind == "grid":
        if m < 36 * n:
            raise InsufficientAncilla(f"grid layout needs m >= 36n, got {m}")
        return _line_layout(n, m, hamiltonian_path_grid(g.params["dims"]),
                            "grid")
    if g.kind == "tree" and g.params.get("arity") == 2:
        try:
            return _tree_layout(n, m)
        except InsufficientAncilla:
            # shallow trees cannot host complete subtree blocks; fall back
            # to greedy blocks over a depth-first order of the tree (the
            # router keeps every CNOT on tree edges)
            return _line_layout(n, m, dfs_order(g), "tree")
    raise InsufficientAncilla(f"no ancilla layout for graph kind {g.kind!r}")


class _Router:
    """Per input bit, its holders in the order they got it, the input qubit
    first.  A source is searched outward from the slot one BFS level of g
    at a time: the earliest holder on the first level that has one, so the
    nearest, and the earliest on a tie."""

    def __init__(self, g, inputs):
        self._adj, self.inputs = g.neighbors, inputs
        self.clear()

    def clear(self):
        """Forget every copy: each bit is held by its input qubit alone."""
        # input-bit index -> {holder: the order it got the bit in}
        self._rank = {bit: {u: 0} for bit, u in enumerate(self.inputs, start=1)}

    def hold(self, v, bit):
        rank = self._rank[bit]
        rank.setdefault(v, len(rank))

    def source(self, bit, near):
        """Closest vertex currently holding x_bit."""
        rank, adj = self._rank[bit], self._adj
        level, seen = {near}, {near}
        while not (found := rank.keys() & level):
            level = {w for v in level for w in adj(v)} - seen
            seen |= level
        return min(found, key=rank.__getitem__)


def _copy(c, g, rt, slots, bits):
    """Copy input bit bits[i mod len(bits)] into slot i by a routed CNOT
    from its nearest holder; the slot then holds that bit too."""
    for idx, v in enumerate(slots):
        bit = bits[idx % len(bits)]
        c.gates.extend(route_cnot_gates(g, rt.source(bit, v), v))
        rt.hold(v, bit)


def _stage_sufcopy(c, g, layout, rt):
    n, p = layout.n, layout.p
    for blk in layout.sub_registers:
        _copy(c, g, rt, blk.copy_slots, range(n - p + 1, n + 1))


def _stage_grayinit(c, g, layout, rt):
    n, p = layout.n, layout.p
    for t, v in enumerate(layout.r_targ):
        for j in range(1, p + 1):
            if (t >> (p - j)) & 1:
                c.gates.extend(route_cnot_gates(g, rt.source(n - p + j, v), v))


def _stage_precopy(c, g, layout, rt, sufcopy_end):
    # the suffix copies are all CNOTs: reversing their slice inverts them
    c.gates.extend(reversed(c.gates[:sufcopy_end]))
    rt.clear()
    for blk in layout.sub_registers:
        _copy(c, g, rt, blk.copy_slots, range(1, layout.n - layout.p + 1))
        # a block has aux slots only when tau >= 1, so bits is not empty
        _copy(c, g, rt, blk.aux_slots, range(1, layout.tau + 1))


def _stage_graycycle(c, g, layout, rt):
    """2^(n-p) Gray steps: each advances every target's prefix codeword by
    one flip (a routed CNOT from the nearest holder of the flipped bit),
    then target k rotates by the mask (codeword << p) | k.  No copy moves
    here, so each target's CNOT per flipped bit is routed once, and a step
    is one of the few distinct CNOT layers plus one run of rotations."""
    p = layout.p
    npf = layout.n - p
    targ = layout.r_targ
    codes = {l: gray_code(npf, l) for l in set(layout.ell_plan)}
    plan = [codes[l] for l in layout.ell_plan]
    hops = [{h: route_cnot_gates(g, rt.source(h, v), v)
             for h in range(1, npf + 1)} for v in targ]
    masks = ((np.array([code.codewords for code in plan]) << p)
             | np.arange(len(targ))[:, None]).T.tolist()
    layers = {}
    cycle = 1 << npf
    for j in range(1, cycle + 1):
        i = j % cycle  # step j goes to codeword i; the last closes the cycle
        key = tuple(code.flips[i] for code in codes.values())
        if key not in layers:
            layers[key] = [gate for code, hop in zip(plan, hops)
                           for gate in hop[code.flips[i]]]
        c.gates.extend(layers[key])
        # mask 0 (codeword 0 on target 1) is the identity
        first = 0 if i else 1
        c.rots(targ[first:], masks[i][first:])


def _ancilla_pipeline(g, n, m):
    """The sealed 5-stage template, with its stages marked and its report
    fields set (no report)."""
    layout = build_layout(g, n, m)
    rt = _Router(g, range(1, n + 1))
    c = Template(g.n, n)

    _stage_sufcopy(c, g, layout, rt)
    c.mark("suffix-copy")
    sufcopy_end = len(c.gates)
    _stage_grayinit(c, g, layout, rt)
    c.mark("gray-init")
    _stage_precopy(c, g, layout, rt, sufcopy_end)
    c.mark("prefix-copy")
    copies_end = len(c.gates)
    _stage_graycycle(c, g, layout, rt)
    c.mark("gray-cycle")
    # undo the copies and Gray initial: all CNOTs, so reversal inverts
    c.gates.extend(reversed(c.gates[:copies_end]))
    c.mark("inverse")

    c.backend = f"ancilla-{layout.kind}"
    c.extra = {"p": layout.p, "tau": layout.tau, "wasted": layout.wasted,
               "ancilla_used": m}
    return c.seal()


def synth_diag_ancilla(g, spec, m, verify=True):
    """5-stage ancilla-assisted circuit for diag(e^{i theta}) on the first
    spec.n qubits of g; returns (circuit, report).  report["stages"] holds,
    per stage, the depth, size and two-qubit count it adds, summing to the
    report's totals.  The template of (g, n, m) is built once and cached
    on g."""
    spec = _as_spec(DiagonalSpec, spec)
    _check_ancilla(g, spec.n, m)
    return _compile(g, ("ancilla", spec.n, m),
                    lambda: _ancilla_pipeline(g, spec.n, m),
                    solve_phase_coefficients(spec.theta), spec, verify)


def synth_diag_expander_ancilla(g, spec, cascade, verify=True):
    """3-stage expander variant: no persistent copies; each Gray step fans
    one input bit out through the matching cascade, applies a matched CNOT
    layer plus rotations, then unwinds the fanout.  The stages are marked
    gray-init, gray-cycle and inverse; the swaps that move input qubits out
    of the cascade count in the first and the last.  Returns (circuit,
    report); the template of (g, n, cascade) is cached on g."""
    spec = _as_spec(DiagonalSpec, spec)
    key = ("expander", spec.n, tuple(cascade.sets),
           tuple(map(tuple, cascade.matchings)))
    return _compile(g, key, lambda: _expander_template(g, spec.n, cascade),
                    solve_phase_coefficients(spec.theta), spec, verify)


def _expander_template(g, n, cascade):
    if cascade.length < 2 or not cascade.matchings:
        raise GrowthStalled("cascade too shallow for an ancilla layout")
    s_final = set(cascade.sets[-1])
    if g.n - len(s_final) < n:
        raise GrowthStalled("cascade leaves no room for the input register")
    last = cascade.matchings[-1]
    partners = {w: u for u, w in last}
    cx = g.cx_gates

    # move any input qubit that sits inside the cascade to a free vertex
    free = [v for v in range(1, g.n + 1) if v not in s_final and v > n]
    perm = {}
    inp_vert = list(range(1, n + 1))
    for i in range(n):
        if (i + 1) in s_final:
            f = free.pop()
            perm[i + 1] = f
            perm[f] = i + 1
            inp_vert[i] = f
    relabel = synth_permutation(g, perm).gates

    targ = [w for _, w in last]
    p = min(int(math.log2(len(targ))), n - 1)
    targ = targ[:1 << p]
    npf = n - p

    def fan_gates(bit):
        gates = []
        src = inp_vert[bit - 1]
        for s in cascade.sets[0]:
            gates.extend(route_cnot_gates(g, src, s))
        for mt in cascade.matchings[:-1]:
            gates.extend(map(cx.__getitem__, mt))
        return gates

    c = Template(g.n, n)
    c.gates.extend(relabel)

    grayinit = []
    for j in range(1, p + 1):
        fg = fan_gates(n - p + j)
        grayinit.extend(fg)
        for t, w in enumerate(targ):
            if (t >> (p - j)) & 1:
                grayinit.append(cx[partners[w], w])
        grayinit.extend(reversed(fg))
    c.gates.extend(grayinit)
    c.mark("gray-init")

    code = gray_code(npf, 1)
    cycle = 1 << npf
    for j in range(1, cycle + 1):
        jn = j + 1 if j < cycle else 1
        h = code.flips[jn - 1]
        fg = fan_gates(h)
        c.gates.extend(fg)
        c.gates.extend([cx[partners[w], w] for w in targ])
        for k, w in enumerate(targ):
            s = (code.codewords[jn - 1] << p) | k
            if s:
                c.rot(w, s)
        c.gates.extend(reversed(fg))
    c.mark("gray-cycle")

    c.gates.extend(reversed(grayinit))
    # a swap network is undone by its reverse
    c.gates.extend(reversed(relabel))
    c.mark("inverse")
    c.backend, c.extra = "ancilla-expander", {"p": p}
    return c.seal()


def _induced_subgraph(g, n):
    """Connected induced subgraph on vertices 1..n, typed so diag.py can
    pick its native strategy when the shape survives the restriction.  A
    whole path, tree, star or explicit graph is g itself, so its routes
    carry over."""
    if g.kind in ("path", "tree", "star", "explicit") and n == g.n:
        return g
    if g.kind == "path":
        return path_graph(n)
    if g.kind == "tree":
        return tree_graph(g.params.get("arity", 2), n=n)
    if g.kind == "star" and n >= 2:
        return star_graph(n)
    return explicit_graph(n, [(u, v) for u, v in g.edges if u <= n and v <= n])


def _auto_template(g, n, m):
    """Sealed template of `_build_auto` for an n-qubit diagonal with m
    ancilla on g, built once and cached on g; its `backend` and `extra`
    hold the report fields."""
    return g.cached(("auto", n, m), lambda: _build_auto(g, n, m))


def _candidates(g, n, m):
    """The templates `_build_auto` compares, built one at a time: the
    no-ancilla strategy on vertices 1..n, the general split there too when
    g is a path, g's own strategy when 1..n ran on a copy of all of g, then
    the ancilla pipeline on m' = m, m//2, m//4, ... >= n ancilla (vertices
    1..n+m') up to the first rung without a layout."""
    sub = _induced_subgraph(g, n)
    yield _dispatch(sub)
    if sub.kind == "path":
        yield _dispatch(sub, "general")
    if n == g.n and sub is not g:
        yield _dispatch(g)
    k = m if n >= 2 else 0
    while k > 0:
        try:
            yield _ancilla_pipeline(g, n, k)
        except InsufficientAncilla:
            return
        k //= 2
        if k < n:
            return


def _build_auto(g, n, m):
    """The shallowest of the `_candidates` templates, then the one with the
    fewest two-qubit gates, then the first.  Each is scanned on g once, the
    winner keeping its scan for the report, and only the best so far is
    kept.  A pipeline that ran on m' < m ancilla counts the m - m' it left
    idle in `wasted`."""
    candidates = _candidates(g, n, m)
    t = next(candidates)
    for other in candidates:
        if other.scan(g)[:3:2] < t.scan(g)[:3:2]:  # by (depth, two-qubit count)
            t = other
        del other  # hold at most two templates while the next is built
    if t.backend.startswith("ancilla-"):
        idle = m - t.extra["ancilla_used"]
        t.extra = {**t.extra, "wasted": t.extra["wasted"] + idle,
                   "decision": t.backend}
        return t
    decision = f"noancilla-{t.backend}"
    t.n = g.n
    t.backend, t.extra = decision, {"decision": decision,
                                    "core_backend": t.backend}
    return t


def synth_diag_auto(g, spec, m, verify=True):
    """The shallowest backend for diag(e^{i theta}) on the first spec.n
    qubits of g with m ancilla (see `_build_auto`); returns (circuit,
    report) with the backend that ran in report["decision"].

    verify=False skips the simulation residual (counting-only runs)."""
    spec = _as_spec(DiagonalSpec, spec)
    _check_ancilla(g, spec.n, m)
    return _compile(g, ("auto", spec.n, m), lambda: _build_auto(g, spec.n, m),
                    solve_phase_coefficients(spec.theta), spec, verify)
