"""Diagonal unitaries without ancilla qubits.

The multiplexed-rotation walk (`_walk`: 2^n - 1 rotations, a Gray code per
level, after Welch, Greenbaum, Mostame and Aspuru-Guzik, NJP 2014)
realises any diagonal on graph vertices, its CNOTs routed.  On top of it
sits the register-split pipeline of Sun, Tian, Yang, Yuan and Zhang
(arXiv 2108.06150): it splits the qubits into a control and a target
register, sweeps Gray-coded parities onto the target register in phases
C_1..C_l, undoes the register rewrites, and ends with the walk over the
control register.  Each graph family has its split; a family with no
split on g falls back to the walk over all of g, reported as backend
"<family>-walk"; a path has none of its own and takes the general split.
The grid and tree2 splits route each CNOT of a sweep on its own, so phase
C_k flips only the target slots it owns and rotates: the flips of an
unowned slot close a Gray cycle and would be the identity.  Seal
(`Template.seal`) then cancels the CNOT pairs that are left within each
stage.

Every builder emits a `Template` whose rotations are slots, since the
gates do not depend on the angles.  Every entry point, here, in
diag_ancilla and in states, ends in `_compile`: it binds its angle vector
to the template cached on g and builds the report from the template's
backend and extra fields.  Every two-qubit gate lies on a graph edge, and
routed CNOTs restore every intermediate qubit, so each construction is
exact for every angle vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import Template
from .graphs import (
    TooLargeForExactExpansion,
    dfs_labeling,
    expander_cascade,
    hamiltonian_path_grid,
    vertex_expansion,
)
from .gray import gray_code, solve_phase_coefficients
from .linear import _f2_reduce, ladder, route_cnot_gates
from .sim import assemble_report


class ExpansionUnknown(ValueError):
    pass


@dataclass(frozen=True)
class DiagonalSpec:
    """Target diagonal diag(e^{i theta(x)}) with theta[0] normalised to 0
    and all angles reduced mod 2*pi, held read-only."""

    n: int
    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.shape != (2**self.n,):
            raise ValueError(f"expected {2 ** self.n} angles, got {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("angles must be finite")
        _freeze(self, "theta", np.mod(theta - theta[0], 2 * math.pi))


def _freeze(spec, name, value):
    """Set field `name` of the frozen spec to value, an array of its own,
    made read-only."""
    value.flags.writeable = False
    object.__setattr__(spec, name, value)


@dataclass
class RegisterSplit:
    """Control/target register assignment for the no-ancilla pipeline.

    ``cverts[m-1]`` is the vertex holding control bit m, ``tverts[i-1]`` the
    vertex whose state is rewritten through the phases; ``gray_plan[i-1]``
    selects which Gray code drives target slot i."""

    cverts: list
    tverts: list
    gray_plan: list

    @property
    def r_c(self):
        return len(self.cverts)

    @property
    def r_t(self):
        return len(self.tverts)


@dataclass
class IndependentCover:
    """Sets T^(1)..T^(l) of F2-independent nonzero r_t-bit masks whose union
    is all nonzero masks; ``owner[t]`` is the first set containing t, which
    determines the disjoint families F_k = {ct : owner[t] = k}."""

    r_t: int
    sets: list
    owner: dict = field(default_factory=dict)

    @property
    def ell(self):
        return len(self.sets)


def _xor_reduce(v, basis):
    for b in basis:
        v = min(v, v ^ b)
    return v


def independent_cover(r_t):
    """Greedy cover of {0,1}^{r_t} \\ {0} by linearly independent sets of
    size r_t: extract a maximal independent subset of the uncovered masks,
    then pad to full rank with already-covered masks."""
    if r_t < 1:
        raise ValueError("r_t must be >= 1")
    all_nz = list(range(1, 2**r_t))
    uncovered = set(all_nz)
    sets = []
    owner = {}
    while uncovered:
        cur, basis = [], []
        for v in sorted(uncovered):
            red = _xor_reduce(v, basis)
            if red:
                basis.append(red)
                cur.append(v)
                if len(cur) == r_t:
                    break
        for v in all_nz:
            if len(cur) == r_t:
                break
            if v in cur:
                continue
            red = _xor_reduce(v, basis)
            if red:
                basis.append(red)
                cur.append(v)
        k = len(sets) + 1
        for v in cur:
            owner.setdefault(v, k)
            uncovered.discard(v)
        sets.append(cur)
    return IndependentCover(r_t, sets, owner)


# ---------------------------------------------------------------------------
# Multiplexed-rotation walk
# ---------------------------------------------------------------------------


def _spread(bits):
    """Table over the words of a len(bits)-bit register (bit 1 = MSB): the
    n-bit mask that sets bits[j] wherever the word sets bit j + 1."""
    tab = np.zeros(1, dtype=np.int64)
    for b in bits:
        tab = (tab[:, None] | np.array([0, b])).ravel()
    return tab


def _walk(t, g, verts):
    """Append to t the walk over `verts` (virtual bit j on verts[j-1], bit
    1 the MSB), every CNOT routed on g; on an edge that is the single CNOT.
    Level k rotates verts[k-1] once per mask whose last set bit is bit k,
    walking a (k-1)-bit Gray code on the bits before it."""
    n_bits = len(verts)
    real = _spread([1 << (g.n - v) for v in verts]).tolist()
    t.rot(verts[0], real[1 << (n_bits - 1)])
    for k in range(2, n_bits + 1):
        bit_k = 1 << (n_bits - k)
        shift = n_bits - k + 1
        code = gray_code(k - 1, 1)
        q = verts[k - 1]
        t.rot(q, real[bit_k])
        for p in range(1, 2 ** (k - 1)):
            t.gates.extend(route_cnot_gates(g, verts[code.flips[p] - 1], q))
            t.rot(q, real[(code.codewords[p] << shift) | bit_k])
        t.gates.extend(route_cnot_gates(g, verts[code.flips[0] - 1], q))


def _seal(t, backend, ell=None):
    """Seal t with its report fields: the backend and the cover size."""
    t.backend = backend
    t.extra = {"ell": ell}
    return t.seal()


# ---------------------------------------------------------------------------
# No-ancilla framework engine
# ---------------------------------------------------------------------------


def _framework(g, split, backend, fanout=None):
    """Control/target register pipeline: for each cover set, re-express the
    target register, then sweep all control prefixes by Gray codes while
    rotating; finish by undoing the register rewrites and applying the
    control-only diagonal via a routed walk over the control vertices.
    The stages are marked gen_k and gray_k for cover set k, reset and
    lambda_rc.  Returns the sealed template.

    The sweep is table-driven.  Each Gray code of the plan gives a
    flip-vertex table and a control-mask table (the n-bit mask of codeword
    p).  A step p is one parallel CNOT step from the flip vertices onto the
    target slots.  `fanout(pairs)`, a shared-control ladder, returns the
    gates of a step over every slot, emitted once and replayed in every
    cover set.  Without it a step is the routed CNOTs of the cover set's
    owned slots alone: a slot the set does not own is never rotated in its
    sweep, and its flips close a Gray cycle, so they would compose to the
    identity.  The owned target slots of a sweep rotate in one run per
    step, and the 2^r_c masks of each slot come from one table lookup."""
    n = g.n
    r_t = split.r_t
    cover = independent_cover(r_t)
    ctab = _spread([1 << (n - v) for v in split.cverts])
    ttab = _spread([1 << (n - v) for v in split.tverts])
    codes = {j: gray_code(split.r_c, j) for j in set(split.gray_plan)}
    flipv = {j: [split.cverts[h - 1] for h in code.flips]
             for j, code in codes.items()}
    cmask = {j: ctab[list(code.codewords)] for j, code in codes.items()}

    def sweep(slots):
        pairs = [(flipv[split.gray_plan[i]], split.tverts[i]) for i in slots]
        if fanout is not None:
            return [fanout([(fv[p], tv) for fv, tv in pairs])
                    for p in range(1 << split.r_c)]
        return [[gate for fv, tv in pairs
                 for gate in route_cnot_gates(g, fv[p], tv)]
                for p in range(1 << split.r_c)]

    every = sweep(range(r_t)) if fanout is not None else None
    out = Template(n, n)
    gates = out.gates

    def routed(u, v):
        gates.extend(route_cnot_gates(g, u, v))

    Y = np.eye(r_t, dtype=np.uint8)
    gen_ops = []

    for k, tset in enumerate(cover.sets, 1):
        Yk = np.array(
            [[(t >> (r_t - 1 - i)) & 1 for i in range(r_t)] for t in tset],
            dtype=np.uint8,
        )
        # Y^-1 applies to the identity the row ops that reduce Y
        Yinv = np.eye(r_t, dtype=np.uint8)
        for src, dst in _f2_reduce(list(Y)):
            Yinv[dst] ^= Yinv[src]
        M = (Yk @ Yinv) % 2
        if not np.array_equal(M, np.eye(r_t, dtype=np.uint8)):
            ops = _f2_reduce([M[i].copy() for i in range(r_t)])
            for src, dst in reversed(ops):
                routed(split.tverts[src], split.tverts[dst])
                gen_ops.append((src, dst))
        Y = Yk
        out.mark(f"gen_{k}")

        # step p flips the bit that leads to codeword p, then each owned
        # slot rotates by that codeword's mask; replaying step 0 closes the
        # cycle
        owned = [i for i, t in enumerate(tset) if cover.owner[t] == k]
        steps = every or sweep(owned)
        qubits = [split.tverts[i] for i in owned]
        masks = np.reshape([cmask[split.gray_plan[i]] | ttab[tset[i]]
                            for i in owned], (len(owned), 1 << split.r_c))
        for p, row in enumerate(masks.T.tolist()):
            if p:
                gates.extend(steps[p])
            out.rots(qubits, row)
        gates.extend(steps[0])
        out.mark(f"gray_{k}")

    # reset: structural inverse of the register rewrites (routed CNOTs are
    # self-inverse row additions)
    for src, dst in reversed(gen_ops):
        routed(split.tverts[src], split.tverts[dst])
    out.mark("reset")

    # control-register diagonal: the walk over the control vertices
    _walk(out, g, split.cverts)
    out.mark("lambda_rc")
    return _seal(out, backend, cover.ell)


def _ladder_emitter(g, rungs, seeds):
    """Shared-control multi-target CNOT as the `linear.ladder` of `rungs`
    around routed CNOTs from the control to every seed.  Only the
    injection depends on the control."""

    def emit(pairs):
        control = pairs[0][0]
        assert all(u == control for u, _ in pairs)
        return ladder(rungs, [gate for v in seeds
                              for gate in route_cnot_gates(g, control, v)])

    return emit


# ---------------------------------------------------------------------------
# Per-graph register splits
# ---------------------------------------------------------------------------


def _path_split(order):
    """The grid's split, interleaved along its Hamiltonian chain `order`:
    targets on the first r_t even chain positions, the most-flipped control
    bits on the odd positions next to them, the rarely used tail controls
    at the chain end."""
    n = len(order)
    if n < 2:
        return None
    tau = 2 * math.ceil(math.log2(n))
    if (n - tau) % 2:
        tau += 1
    tau = min(tau, n - 2)  # n - 2 has n's parity: n - tau stays even
    r_t = (n - tau) // 2
    cverts = [order[2 * m - 2] for m in range(1, r_t + 1)]
    cverts += [order[2 * r_t + j - 1] for j in range(1, tau + 1)]
    tverts = [order[2 * i - 1] for i in range(1, r_t + 1)]
    return RegisterSplit(cverts, tverts, list(range(1, r_t + 1)))


def _tree2_split(g):
    """Subtree split for a binary tree (heap indexing, root 1): target bits
    are subtree roots every a+1 levels; each subtree's interior supplies a
    consecutive block of control bits so most Gray flips stay local."""
    n = g.n
    kappa = (n + 1).bit_length() - 2  # depth of a heap-complete binary tree
    if kappa < 2:  # a >= 1 level of interior below a non-root target
        return None
    a = math.ceil(math.log2(max(2.0, 2 * math.log2(n))))
    a = min(a, kappa - 1)
    step = a + 1
    # target levels kappa - a, kappa - a - step, ..., never the root's
    depths = {kappa - j * step + 1
              for j in range(1, (kappa + 1) // step + 1)} - {0}
    troots = [v for v in range(1, n + 1) if v.bit_length() - 1 in depths]
    tset = set(troots)
    cverts, gray_plan = [], []
    for z in troots:
        # interior: descendants within `a` levels, stopping at nested roots
        block = []
        frontier = [z]
        for _ in range(a):
            nxt = []
            for v in frontier:
                for ch in (2 * v, 2 * v + 1):
                    if ch <= n and ch not in tset:
                        nxt.append(ch)
                        block.append(ch)
            frontier = nxt
        gray_plan.append(len(cverts) + 1)
        cverts.extend(block)
    used = tset.union(cverts)
    cverts.extend(v for v in range(1, n + 1) if v not in used)
    r_c = len(cverts)
    gray_plan = [((j - 1) % r_c) + 1 for j in gray_plan]
    return RegisterSplit(cverts, troots, gray_plan)


def _general_split(g):
    labels = dfs_labeling(g)
    by_label = {lab: v for v, lab in labels.items()}
    n = g.n
    r_c = math.ceil(n / 2)
    r_t = n - r_c
    if r_t < 1:
        return None
    cverts = [by_label[m] for m in range(1, r_c + 1)]
    tverts = [by_label[r_c + i] for i in range(1, r_t + 1)]
    return RegisterSplit(cverts, tverts, [1] * r_t)


def _expander_split(g):
    try:
        h = vertex_expansion(g)
    except TooLargeForExactExpansion as exc:
        raise ExpansionUnknown(str(exc)) from exc
    cprime = h / (h + 2)
    seed = min(math.ceil(1 / cprime) + 1, g.n // 2)
    casc = expander_cascade(g, seed, g.n // 2)
    tverts = list(casc.sets[-1])
    tset = set(tverts)
    cverts = [v for v in range(1, g.n + 1) if v not in tset]
    return RegisterSplit(cverts, tverts, [1] * len(tverts)), casc


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


def _as_spec(cls, spec):
    """spec itself if a cls, else the cls of spec's 2^n entries (or rows)."""
    if isinstance(spec, cls):
        return spec
    return cls(int(np.log2(len(spec))), spec)


def _check_ancilla(g, n, m):
    """Refuse an ancilla count m outside 0..g.n - n."""
    if not 0 <= m <= g.n - n:
        raise ValueError(f"m = {m} ancilla: m < 0 or the graph has fewer "
                         f"than n + m = {n + m} vertices")


def _compile(g, key, build, params, target, verify):
    """(circuit, report) of every entry point: g's template under `key`,
    built by `build()` on first use, bound to params.  The circuit and the
    report count every qubit past target.n as an ancilla; the report takes
    the template's backend and extra fields; verify=False skips the
    simulation residual."""
    t = g.cached(key, build)
    c = t.bind(params)
    c.ancilla = g.n - target.n
    return c, assemble_report(c, g, target if verify else None,
                              backend=t.backend, extra=t.extra)


def synth_diag_noancilla(g, spec, strategy="auto", verify=True):
    """Connectivity-respecting circuit for diag(e^{i theta}) on g; returns
    (circuit, report).  `strategy` names the construction: "general" (the
    depth-first split), "expander" (the matching-cascade split) or "auto",
    which is `synth_diag_auto(g, spec, 0)`: the shallowest of the
    constructions `_strategies` lists for g.  The template of
    (g, strategy) is built once and cached on g.

    verify=False skips the simulation residual (counting-only runs)."""
    spec = _as_spec(DiagonalSpec, spec)
    if g.n != spec.n:
        raise ValueError("graph size must equal qubit count")
    if strategy == "auto":
        from .diag_ancilla import synth_diag_auto  # it imports this module
        return synth_diag_auto(g, spec, 0, verify)
    if strategy not in ("general", "expander"):
        raise ValueError(f"unknown strategy {strategy!r}")
    return _compile(g, ("noancilla", strategy), lambda: _dispatch(g, strategy),
                    solve_phase_coefficients(spec.theta), spec, verify)


def _is_complete(g):
    return 2 * len(g.edges) == g.n * (g.n - 1)


def _strategies(g):
    """The constructions the no-ancilla chooser compares on all of g, in
    tie order: the split of a tree or star; on any other graph the walk if
    g is complete (so a path with n <= 2), else the general split, then on
    a grid the grid split."""
    if g.kind in ("tree", "star"):
        return (g.kind,)
    first = "complete" if _is_complete(g) else "general"
    return (first, "grid") if g.kind == "grid" else (first,)


def _dispatch(g, strategy):
    """The sealed no-ancilla template of `strategy` for a diagonal on all of
    g; the backend that actually ran is its `backend`.  A strategy without
    a register split on g falls back to the walk named f"{strategy}-walk",
    with the most active control at the graph center and the other bits
    by distance from it."""
    split = casc = None
    if strategy == "complete":
        if g.n > 20:
            raise ValueError("n too large for dense angle solve")
        t = Template(g.n, g.n)
        _walk(t, g, list(range(1, g.n + 1)))
        return _seal(t, "complete")
    if strategy == "grid":
        split = _path_split(hamiltonian_path_grid(g.params["dims"]))
    elif strategy == "tree" and g.params.get("arity") == 2:
        split = _tree2_split(g)
    elif strategy == "expander":
        split, casc = _expander_split(g)
    elif strategy == "general":
        split = _general_split(g)

    if split is None:
        dist = g.bfs_dist(g.center())
        t = Template(g.n, g.n)
        _walk(t, g, sorted(range(1, g.n + 1), key=lambda v: (dist[v], v)))
        return _seal(t, f"{strategy}-walk")
    fanout = None  # the grid and tree2 splits route each pair
    if casc is not None:
        fanout = _ladder_emitter(
            g, [[g.cx_gates[e] for e in m] for m in casc.matchings],
            casc.sets[0])
    elif strategy == "general":
        fanout = _ladder_emitter(
            g, [route_cnot_gates(g, u, v)
                for u, v in zip(split.tverts, split.tverts[1:])],
            split.tverts[:1])
    return _framework(g, split, "tree2" if strategy == "tree" else strategy,
                      fanout)
