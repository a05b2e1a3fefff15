"""Ancilla-assisted synthesis of diagonal unitaries on constrained graphs.

The main pipeline splits the phase function theta(x) = sum_s alpha_s <s,x>
by suffix: with p suffix bits, 2^p borrowed target qubits each track one
suffix pattern t_k, and a Gray cycle over the 2^{n-p} prefixes visits every
nonzero s exactly once.  Five stages, each marked on the one circuit:
suffix-copy, gray-init, prefix-copy, gray-cycle, inverse.  Layouts exist
for paths, grids (along a Hamiltonian path) and binary trees; expanders use
a 3-stage variant (gray-init, gray-cycle, inverse) that re-fans single bits
through the matching cascade instead of keeping copies.  `synth_diag_auto`
builds the pipeline and the no-ancilla strategies of diag.py and keeps the
shallowest; the expander variant has its own entry point only.
"""

import contextlib
import functools
import math
from dataclasses import dataclass

from .circuit import Circuit, Template, _scan
from .diag import _as_spec, _bind_report, _dispatch
from .graphs import (
    GrowthStalled,
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
    r_inp: list
    r_copy: list
    r_targ: list  # exactly 2^p vertices; index k-1 is target k
    r_aux: list
    p: int
    tau: int
    ell_plan: list  # Gray-code index for each target, length 2^p
    sub_registers: list  # SubRegister blocks
    kind: str = ""
    wasted: int = 0

    def __post_init__(self):
        regs = [self.r_inp, self.r_copy, self.r_targ, self.r_aux]
        seen = set()
        for reg in regs:
            for v in reg:
                if v in seen:
                    raise ValueError(f"vertex {v} in two registers")
                seen.add(v)
        if len(self.r_targ) != 1 << self.p:
            raise ValueError("target register must have 2^p qubits")
        if len(self.ell_plan) != 1 << self.p:
            raise ValueError("ell_plan length mismatch")


def _aux_width(n_pre):
    """Cutoff tau: bits x_1..x_tau get dedicated nearby copies."""
    if n_pre < 2:
        return 0
    return min(2 * math.ceil(math.log2(n_pre)), n_pre)


def _blocks_on_line(order, n, m_eff, p0):
    """Greedy placement of R_1..R_r along `order` (ancilla vertices in line
    order): per block, n-p alternating copy/target pairs then tau aux slots.
    Returns (p, tau, blocks); shrinks p (and then tau, possibly to 0)
    until the blocks fit."""
    for p in range(min(p0, n - 1), 0, -1):
        npf = n - p
        r = -(-(1 << p) // npf)
        if 2 * r * npf <= m_eff:
            tau = min(_aux_width(npf), max(0, m_eff // r - 2 * npf))
            break
    else:
        raise InsufficientAncilla("no block arrangement fits")
    npf = n - p
    blocks = []
    pos = iter(order)
    placed = 0
    for _ in range(r):
        copy, targ, aux = [], [], []
        for _ in range(npf):
            copy.append(next(pos))
            v = next(pos)
            if placed < (1 << p):
                targ.append(v)
                placed += 1
        for _ in range(tau):
            aux.append(next(pos))
        blocks.append(SubRegister(copy, targ, aux))
    return p, tau, blocks


def _line_layout(g, n, m, order, p0, kind):
    """Blocks along the ancilla vertices of `order`, inputs on 1..n."""
    m_eff = min(m, 3 * (1 << n))
    line = [v for v in order if v > n]
    p, tau, blocks = _blocks_on_line(line[:m_eff], n, m_eff, p0)
    npf = n - p
    r_targ, ell_plan = [], []
    for b in blocks:
        for v in b.targ_slots:
            k = len(r_targ) + 1
            r_targ.append(v)
            ell_plan.append((k - 1) % npf + 1)
    return _layout(n, blocks, r_targ, ell_plan, p=p, tau=tau, kind=kind,
                   wasted=m - (2 * npf + tau) * len(blocks))


def _layout(n, blocks, r_targ, ell_plan, **kw):
    """The RegisterLayout of `blocks`, inputs on 1..n."""
    return RegisterLayout(list(range(1, n + 1)),
                          [v for b in blocks for v in b.copy_slots], r_targ,
                          [v for b in blocks for v in b.aux_slots],
                          ell_plan=ell_plan, sub_registers=blocks, **kw)


def _tree_layout(g, n, m):
    # heap labels: children of v are 2v, 2v+1; depth of v is bitlength-1
    kappa = math.ceil(math.log2(n + 1)) - 1
    d_total = g.n.bit_length() - 1  # deepest fully-present level
    b0 = max(1, math.ceil(math.log2(max(2.0, 2 * math.log2(n)))))
    roots = []
    for b in range(b0, 0, -1):
        span = kappa + b + 1
        roots = []
        depth = d_total - span + 1
        while depth >= kappa + 1:
            level = [v for v in range(1 << depth, 1 << (depth + 1))
                     if v * (1 << (span - 1)) + ((1 << (span - 1)) - 1) <= g.n]
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
                 if v * (1 << (span - 1)) + ((1 << (span - 1)) - 1) <= g.n]
        if not roots:
            raise InsufficientAncilla("tree too shallow for a subtree layout")
        copy_layers = range(span - 1)
        targ_layer = span - 1
        aux_layers = range(0)

    def level_of(z, rel):
        return list(range(z << rel, (z << rel) + (1 << rel)))

    total_targets = len(roots) * (1 << targ_layer)
    p = min(int(math.log2(total_targets)), n - 1)
    if p < 1:
        raise InsufficientAncilla("no room for target qubits in tree")
    npf = n - p
    tau = min((1 << b) - 2, npf) if len(aux_layers) else 0
    blocks, r_targ, ell_plan = [], [], []
    for z in roots:
        copy = [v for rel in copy_layers for v in level_of(z, rel)]
        targ_all = level_of(z, targ_layer)
        aux = [v for rel in aux_layers for v in level_of(z, rel)]
        targ = []
        for v in targ_all:
            if len(r_targ) < (1 << p):
                targ.append(v)
                r_targ.append(v)
                ell_plan.append(1)
        blocks.append(SubRegister(copy, targ, aux))
    used = sum(len(b.copy_slots) + len(b.targ_slots) + len(b.aux_slots)
               for b in blocks)
    return _layout(n, blocks, r_targ, ell_plan, p=p, tau=tau, kind="tree",
                   wasted=m - used)


def build_layout(g, n, m):
    """Register layout for the 5-stage pipeline on g (n inputs, m ancilla)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n + m > g.n:
        raise ValueError("graph has fewer than n + m vertices")
    if g.kind == "path":
        p0 = max(1, int(math.log2(max(2.0, min(m, 3 << n) / 3))))
        return _line_layout(g, n, m, list(range(1, n + m + 1)), p0, "path")
    if g.kind == "grid":
        if m < 36 * n:
            raise InsufficientAncilla(f"grid layout needs m >= 36n, got {m}")
        order = hamiltonian_path_grid(g.params["dims"])
        p0 = int(math.log2(min(m, 18 << n) / 18))
        return _line_layout(g, n, m, order, p0, "grid")
    if g.kind == "tree" and g.params.get("arity") == 2:
        try:
            return _tree_layout(g, n, m)
        except InsufficientAncilla:
            # shallow trees cannot host complete subtree blocks; fall back
            # to greedy blocks over a depth-first order of the tree (the
            # router keeps every CNOT on tree edges)
            order, stack = [], [1]
            while stack:
                v = stack.pop()
                if v <= g.n:
                    order.append(v)
                    stack += (2 * v + 1, 2 * v)
            p0 = max(1, int(math.log2(max(2.0, min(m, 3 << n) / 3))))
            return _line_layout(g, n, m, order, p0, "tree")
    raise InsufficientAncilla(f"no ancilla layout for graph kind {g.kind!r}")


class _Router:
    """Per input bit, the nearest holder of it seen from every vertex, and
    its distance.  A new holder takes only the vertices strictly closer to
    it, so the input qubit (the seed), then the earliest holder, wins ties."""

    def __init__(self, g, r_inp):
        self.r_inp = r_inp
        # vertex -> BFS distances, scratch for one build: kept on g, the
        # rows of a large ancilla graph would hold megabytes per graph
        self._row = functools.cache(g.bfs_dist)
        self.clear()

    def clear(self):
        """Forget every copy: each bit is held by its input qubit alone."""
        # input-bit index -> ({vertex: nearest holder}, {vertex: its distance})
        self._near = {bit: (dict.fromkeys(self._row(u), u), dict(self._row(u)))
                      for bit, u in enumerate(self.r_inp, start=1)}

    def hold(self, v, bit):
        src, dist = self._near[bit]
        for w, d in self._row(v).items():
            if d < dist[w]:
                dist[w] = d
                src[w] = v

    def source(self, bit, near):
        """Closest vertex currently holding x_bit."""
        return self._near[bit][0][near]


def _stage_sufcopy(c, g, layout, rt):
    n = len(layout.r_inp)
    p = layout.p
    for blk in layout.sub_registers:
        for idx, v in enumerate(blk.copy_slots):
            bit = n - p + 1 + (idx % p)
            c.gates.extend(route_cnot_gates(g, rt.source(bit, v), v))
            rt.hold(v, bit)


def _stage_grayinit(c, g, layout, rt):
    n = len(layout.r_inp)
    p = layout.p
    for k, v in enumerate(layout.r_targ, start=1):
        t = k - 1
        for j in range(1, p + 1):
            if (t >> (p - j)) & 1:
                c.gates.extend(route_cnot_gates(g, rt.source(n - p + j, v), v))


def _stage_precopy(c, g, layout, rt, sufcopy_end):
    # the suffix copies are all CNOTs: reversing their slice inverts them
    c.gates.extend(reversed(c.gates[:sufcopy_end]))
    rt.clear()
    npf = len(layout.r_inp) - layout.p
    for blk in layout.sub_registers:
        for idx, v in enumerate(blk.copy_slots):
            bit = (idx % npf) + 1
            c.gates.extend(route_cnot_gates(g, rt.source(bit, v), v))
            rt.hold(v, bit)
        if layout.tau:
            for idx, v in enumerate(blk.aux_slots):
                bit = (idx % layout.tau) + 1
                c.gates.extend(route_cnot_gates(g, rt.source(bit, v), v))
                rt.hold(v, bit)


def _stage_graycycle(c, g, layout, rt):
    n = len(layout.r_inp)
    p = layout.p
    codes = {l: gray_code(n - p, l) for l in set(layout.ell_plan)}
    plan = [codes[l] for l in layout.ell_plan]
    cycle = 1 << (n - p)
    for j in range(1, cycle + 1):
        jn = j + 1 if j < cycle else 1
        # U_Gen: advance every target's prefix codeword by one Gray step
        for code, v in zip(plan, layout.r_targ):
            h = code.flips[jn - 1]
            c.gates.extend(route_cnot_gates(g, rt.source(h, v), v))
        # rotation layer: target k + 1 holds the mask (codeword << p) | k
        for k, (code, v) in enumerate(zip(plan, layout.r_targ)):
            s = (code.codewords[jn - 1] << p) | k
            if s:
                c.rot(v, s)


def _ancilla_pipeline(g, n, m):
    """The sealed 5-stage template, with its stages marked and its report
    fields set (no report)."""
    layout = build_layout(g, n, m)
    rt = _Router(g, layout.r_inp)
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

    c.backend = c.meta["backend"] = f"ancilla-{layout.kind}"
    c.extra = {"p": layout.p, "tau": layout.tau, "wasted": layout.wasted}
    c.meta.update(c.extra)
    return c.seal()


def synth_diag_ancilla(g, spec, m, verify=True):
    """5-stage ancilla-assisted circuit for diag(e^{i theta}) on the first
    spec.n qubits of g; returns (circuit, stage table, report).  The stage
    table is report["stages"]: per stage, the depth, size and two-qubit
    count it adds, summing to the report's totals.  The template of
    (g, n, m) is built once and cached on g."""
    spec = _as_spec(spec)
    c, report = _bind_report(g, ("ancilla", spec.n, m),
                             lambda: _ancilla_pipeline(g, spec.n, m),
                             spec, verify)
    return c, report["stages"], report


def synth_diag_expander_ancilla(g, spec, cascade):
    """3-stage expander variant: no persistent copies; each Gray step fans
    one input bit out through the matching cascade, applies a matched CNOT
    layer plus rotations, then unwinds the fanout.  The stages are marked
    gray-init, gray-cycle and inverse; the swaps that move input qubits out
    of the cascade count in the first and the last."""
    spec = _as_spec(spec)
    return _expander_template(g, spec.n, cascade).bind(
        solve_phase_coefficients(spec.theta))


def _expander_template(g, n, cascade):
    if cascade.length < 2 or not cascade.matchings:
        raise GrowthStalled("cascade too shallow for an ancilla layout")
    s_final = set(cascade.sets[-1])
    if g.n - len(s_final) < n:
        raise GrowthStalled("cascade leaves no room for the input register")
    last = cascade.matchings[-1]
    partners = {w: u for u, w in last}

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
    relabel = synth_permutation(g, perm) if perm else Circuit(g.n)

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
            for u, w in mt:
                gates.append(("cx", (u, w), None))
        return gates

    c = Template(g.n, n)
    c.gates.extend(relabel.gates)

    grayinit = []
    for j in range(1, p + 1):
        fg = fan_gates(n - p + j)
        grayinit.extend(fg)
        for k, w in enumerate(targ, start=1):
            if ((k - 1) >> (p - j)) & 1:
                grayinit.append(("cx", (partners[w], w), None))
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
        for w in targ:
            c.cx(partners[w], w)
        for k, w in enumerate(targ):
            s = (code.codewords[jn - 1] << p) | k
            if s:
                c.rot(w, s)
        c.gates.extend(reversed(fg))
    c.mark("gray-cycle")

    c.gates.extend(reversed(grayinit))
    c.gates.extend(relabel.inverse().gates)
    c.mark("inverse")
    c.meta.update(backend="ancilla-expander", p=p)
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


def _build_auto(g, n, m, report=False):
    """The shallowest of the candidate templates, then the one with the
    fewest two-qubit gates, then the first: the no-ancilla strategy on
    vertices 1..n; g's own strategy when that ran on a copy of the whole
    of g; the ancilla pipeline when g has a layout for it.  With `report`,
    the winner's scan is kept for the report under ("scan", "auto", n, m)."""
    if n + m > g.n:
        raise ValueError("graph has fewer than n + m vertices")
    sub = _induced_subgraph(g, n)
    candidates = [_dispatch(sub)]
    if n == g.n and sub is not g:
        candidates.append(_dispatch(g))
    if m > 0 and n >= 2:
        with contextlib.suppress(InsufficientAncilla):
            candidates.append(_ancilla_pipeline(g, n, m))
    t = candidates[0]
    if len(candidates) > 1:  # by (depth, two-qubit count); one scan each
        scans = [_scan(c, g._pairs) for c in candidates]
        k = min(range(len(scans)), key=lambda i: scans[i][:3:2])
        t = candidates[k]
        if report:
            g.cached(("scan", "auto", n, m), lambda: scans[k])
    if t.backend.startswith("ancilla-"):
        t.extra = {**t.extra, "decision": t.backend}
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
    spec = _as_spec(spec)
    return _bind_report(g, ("auto", spec.n, m),
                        lambda: _build_auto(g, spec.n, m, True), spec, verify)
