"""Uniformly controlled gates, state preparation, and general unitaries.

Everything here reduces to the diagonal backends: a uniformly controlled
gate (UCG) splits into three diagonal unitaries conjugated by fixed
single-qubit gates, an n-qubit state is a cascade of n UCGs of growing
width, and a general unitary is a sequence of 2^n - 1 UCGs obtained by
recursive cosine-sine demultiplexing.  A separate unary-encoded route
serves binary trees with enough ancilla to hold one qubit per basis state.

Branch work is batched: a state's cascade builds each stage's branch array
with array arithmetic, and a UCG's ZYZ angles come from one computation
over all of its branches.

A cascade's gates, up to their angles, follow from the graph, n, m and
which pieces each UCG emitted; `synth_ucg` records the latter as its
circuit's `meta["skeleton"]`.  The cascade's report therefore passes
key=(backend, n, m, skeletons) to `assemble_report`, which keeps the gate
scan (depth, size, CNOTs, connectivity audit, stage rows) in the graph's
memo under ("scan", *key), so a warm call scans nothing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cossin

from .circuit import Circuit, gate_matrix
from .diag import DiagonalSpec
from .diag_ancilla import _auto_template
from .graphs import explicit_graph, tree_graph
from .linear import multi_controlled_x, copy_register, route_cnot_gates, \
    synth_permutation
from .sim import assemble_report


class DecompositionFailure(ValueError):
    pass


# -- domain types -----------------------------------------------------------

@dataclass
class UcgSpec:
    """Block-diagonal gate applying branches[z] to the target qubit for
    every control word z (the non-target qubits read most significant
    first).

    Any array-like of 2x2 matrices is accepted; it is stored as one
    (2^(n-1), 2, 2) complex array and checked for unitarity in one batched
    product."""

    n: int
    branches: np.ndarray
    target: int = 0

    def __post_init__(self):
        if self.target == 0:
            self.target = self.n
        if not 1 <= self.target <= self.n:
            raise ValueError(f"target {self.target} out of range")
        count = 1 << (self.n - 1)
        if len(self.branches) != count:
            raise ValueError(
                f"expected {count} branches, got {len(self.branches)}"
            )
        try:
            br = np.asarray(self.branches, dtype=complex)
        except ValueError:  # ragged: matrices of different shapes
            br = None
        if br is None or br.shape != (count, 2, 2):
            raise ValueError("branches must be 2x2")
        err = np.abs(br.conj().transpose(0, 2, 1) @ br - np.eye(2))
        bad = err.max(axis=(1, 2)) > 1e-12
        if bad.any():
            raise ValueError(f"branch {bad.argmax()} is not unitary")
        self.branches = br

    def __eq__(self, other):
        return (isinstance(other, UcgSpec) and self.n == other.n
                and self.target == other.target
                and np.array_equal(self.branches, other.branches))


@dataclass
class StateSpec:
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes")
        if abs(np.sum(np.abs(amp) ** 2) - 1.0) > 1e-12:
            raise ValueError("amplitudes must have unit norm")
        self.amplitudes = amp


@dataclass
class UnitarySpec:
    n: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        size = 1 << self.n
        if mat.shape != (size, size):
            raise ValueError(f"expected a {size}x{size} matrix")
        if np.max(np.abs(mat.conj().T @ mat - np.eye(size))) > 1e-10:
            raise DecompositionFailure("matrix is not unitary")
        self.matrix = mat


# -- UCG -> diagonals -------------------------------------------------------

def zyz_angles_batch(u):
    """Euler angles (a, b, c, d), each an array over the stack u of 2x2
    unitaries, with u[k] = e^{ia[k]} Rz(b[k]) Ry(c[k]) Rz(d[k])."""
    x = np.asarray(u, dtype=complex).reshape(-1, 4)  # u00 u01 u10 u11
    det = x[:, 0] * x[:, 3] - x[:, 1] * x[:, 2]
    a = 0.5 * np.arctan2(det.imag, det.real)
    v = x[:, [0, 2, 3]] * np.exp(-1j * a)[:, None]  # v00 v10 v11
    m00, m10 = np.abs(v[:, :2]).T
    _, bmd, bpd = 2.0 * np.arctan2(v.imag, v.real).T
    c = 2.0 * np.arctan2(m10, m00)
    b, d = (bpd + bmd) / 2.0, (bpd - bmd) / 2.0
    # a (near-)zero column entry leaves one phase free: put it all in b
    anti = m00 < 1e-12
    diag = (m10 < 1e-12) & ~anti
    b[anti], b[diag] = bmd[anti], bpd[diag]
    d[anti | diag] = 0.0
    return a, b, c, d


def zyz_angles(u):
    """Euler angles (a, b, c, d) with u = e^{ia} Rz(b) Ry(c) Rz(d)."""
    return tuple(float(x[0]) for x in zyz_angles_batch(np.asarray(u)[None]))


#: target-qubit gates between the three diagonals: apply the first pair
#: after the first diagonal and the second pair after the middle one.
UCG_MID_GATES = (("sdg", "h"), ("h", "s"))


def ucg_to_diagonals(V):
    """Three diagonal factors of a last-target UCG.

    Returns (lam1, lam2, lam3, UCG_MID_GATES): the UCG equals
    lam3 . (I x SH) . lam2 . (I x HS+) . lam1 up to a global phase, using
    H Rz H = Rx and S Rx S+ = Ry to turn the middle diagonal into the
    branch Y-rotations.
    """
    if V.target != V.n:
        raise ValueError("ucg_to_diagonals expects target on the last qubit")
    n = V.n
    a, b, c, d = zyz_angles_batch(V.branches)
    # th[f, z, t]: angle of factor f on control word z, target bit t
    th = np.zeros((3, len(a), 2))
    th[0, :, 1] = d
    th[1, :, 1] = c
    th[2, :, 0] = a - (b + c + d) / 2.0
    th[2, :, 1] = th[2, :, 0] + b
    return (*(DiagonalSpec(n, f.ravel()) for f in th), UCG_MID_GATES)


def retarget_last(V):
    """Equivalent UCG with target n, valid after exchanging the contents of
    qubits V.target and n (branch table reindexed accordingly)."""
    n, t = V.n, V.target
    if t == n:
        return V
    # one axis per control bit: the new last control is old qubit n, whose
    # bit moves into qubit t's place
    tensor = V.branches.reshape((2,) * (n - 1) + (2, 2))
    return UcgSpec(n, np.moveaxis(tensor, n - 2, t - 1).reshape(-1, 2, 2), n)


def synth_ucg(g, V, m):
    """Compile a UCG on the first V.n qubits of g with m ancilla.

    The three diagonal factors bind their angles to the one template of the
    automatic diagonal dispatch for (g, n, m), cached on g (no report); the
    fixed single-qubit gates land on the target vertex.  Targets other than
    the last qubit are conjugated by a swap network first.

    `meta["skeleton"]` is (n, target, emitted): emitted flags the three
    pieces that were not skipped as all-zero, the rz/ry/rz for n = 1 and
    the diagonal factors otherwise (the mid gates go with the second).
    With g and m it fixes every gate but the angles.
    """
    n, target = V.n, V.target
    c = Circuit(g.n)
    if n == 1:
        _, b, cc, d = zyz_angles(V.branches[0])
        emitted = tuple(abs(ang) > 1e-14 for ang in (d, cc, b))
        for name, ang, on in zip(("rz", "ry", "rz"), (d, cc, b), emitted):
            if on:
                c.add(name, (1,), ang)
        c.meta["backend"] = "ucg"
        c.meta["skeleton"] = (n, target, emitted)
        return c
    perm = None
    if target != n:
        perm = synth_permutation(g, {target: n, n: target})
        c.extend(perm)
        V = retarget_last(V)
    lam1, lam2, lam3, (mid1, mid2) = ucg_to_diagonals(V)
    emitted = tuple(bool(np.max(np.abs(lam.theta)) > 1e-14)
                    for lam in (lam1, lam2, lam3))

    def emit_diag(lam):
        c.extend(_auto_template(g, n, m).bind(lam.theta))

    if emitted[0]:
        emit_diag(lam1)
    if emitted[1]:
        for name in mid1:
            c.add(name, (n,))
        emit_diag(lam2)
        for name in mid2:
            c.add(name, (n,))
    if emitted[2]:
        emit_diag(lam3)
    if perm is not None:
        c.extend(perm.inverse())
    c.meta["backend"] = "ucg"
    c.meta["skeleton"] = (n, target, emitted)
    return c


# -- QSP via a UCG cascade --------------------------------------------------

def state_to_ucgs(v):
    """UCGs V_1..V_n with V_n..V_1 |0^n> = v.

    V_j rotates qubit j by the conditional amplitude pair of its prefix
    branch; magnitudes come from the amplitude tree and all phases fold
    into the last stage.  Zero-mass branches become identity.
    """
    if not isinstance(v, StateSpec):
        v = StateSpec(int(np.log2(len(v))), v)
    n = v.n
    amp = v.amplitudes
    mags = [None] * (n + 1)
    mags[n] = np.abs(amp)
    for j in range(n - 1, -1, -1):
        sq = mags[j + 1] ** 2
        mags[j] = np.sqrt(sq[0::2] + sq[1::2])
    specs = []
    for j in range(1, n + 1):
        cw = mags[j - 1]
        live = cw > 1e-15
        # branch w maps |0> to the normalised pair (p, q) below prefix w
        col = (mags[j] if j < n else amp).reshape(-1, 2) / np.where(
            live, cw, 1.0)[:, None]
        p, q = col[:, 0], col[:, 1]
        br = np.stack([p, -np.conj(q), q, np.conj(p)], axis=1).reshape(-1, 2, 2)
        br[~live] = np.eye(2)
        specs.append(UcgSpec(j, br, j))
    return specs


def _prefix_order(g):
    """Vertex order whose every prefix induces a connected subgraph.

    Path/grid/tree/star labelings already have this property; other graphs
    fall back to breadth-first order from vertex 1.
    """
    if g.kind in ("path", "grid", "tree", "star"):
        return list(range(1, g.n + 1))
    return list(g.bfs_dist(1))


def _map_gates(c, where, size):
    out = Circuit(size)
    for name, qs, p in c.gates:
        out.gates.append((name, tuple(where[q] for q in qs), p))
    return out


def qsp_synthesize(g, v, m, verify=True):
    """Prepare v on the first n qubits of g: |0^{n+m}> -> v x |0^m>.

    Cascade of synth_ucg stages; qubits j+1..n+m still hold |0> while
    stage j runs, so every stage sees the full remaining register as
    ancilla.  On graphs whose natural labeling has disconnected prefixes
    the cascade runs in breadth-first coordinates, on a relabelled host
    graph kept in g's memo, and a final swap network moves the state onto
    qubits 1..n.  The stages are marked ucg_1..ucg_n, then relabel for the
    swap network.
    """
    if not isinstance(v, StateSpec):
        v = StateSpec(int(np.log2(len(v))), v)
    n = v.n
    if n + m != g.n:
        raise ValueError("graph must host exactly n + m qubits")
    order = _prefix_order(g)
    natural = order == list(range(1, g.n + 1))
    if natural:
        host = g
    else:
        pos = {vtx: i + 1 for i, vtx in enumerate(order)}
        host = g.cached(("host",), lambda: explicit_graph(
            g.n, [(pos[a], pos[b]) for a, b in g.edges]))
    c = Circuit(g.n)
    skeletons = []
    for j, V in enumerate(state_to_ucgs(v), start=1):
        cj = synth_ucg(host, V, g.n - j)
        skeletons.append(cj.meta["skeleton"])
        if natural:
            c.extend(cj)
        else:
            c.extend(_map_gates(cj, {i + 1: o for i, o in enumerate(order)},
                                g.n))
        c.mark(f"ucg_{j}")
    if not natural:
        c.extend(synth_permutation(g, {o: i + 1 for i, o in enumerate(order)}))
        c.mark("relabel")
    report = assemble_report(c, g, v if verify else None, m=m,
                             backend="qsp-cascade",
                             key=("qsp-cascade", n, m, tuple(skeletons)))
    return c, report


# -- unary-encoded route on binary trees ------------------------------------

def unary_qsp_tree(v):
    """Unary-encoded preparation sum_x v_x |e_x> on the leaf layer of the
    heap-indexed binary tree with 2^{n+1}-1 vertices.

    An X gate places a walker token at the root; each level splits the
    token between the two children with the conditional magnitudes (a
    swap towards the left child plus a two-qubit rotation between the
    children through the parent), and a final layer of phase gates on the
    leaves applies arg(v_x).  Internal vertices end in |0>.
    """
    if not isinstance(v, StateSpec):
        v = StateSpec(int(np.log2(len(v))), v)
    n = v.n
    size = (1 << (n + 1)) - 1
    amp = v.amplitudes
    u = np.zeros(size + 1)
    u[1 << n:] = np.abs(amp)
    for w in range((1 << n) - 1, 0, -1):
        u[w] = math.hypot(u[2 * w], u[2 * w + 1])
    c = Circuit(size)
    c.x(1)
    for k in range(1, n + 1):
        for z in range(1 << (k - 1), 1 << k):
            if u[z] <= 1e-15:
                continue
            # token at z -> sin(t)|1>_{2z} + cos(t)|1>_{2z+1}; |0..0>
            # stays fixed, so the two ry's cancel on empty subtrees
            t = math.atan2(u[2 * z], u[2 * z + 1])
            c.ry(2 * z + 1, t)
            c.cx(z, 2 * z + 1)
            c.ry(2 * z + 1, -t)
            c.cx(2 * z + 1, z)
            c.cx(z, 2 * z)
            c.cx(2 * z, z)
    for x in range(1 << n):
        if abs(amp[x]) > 1e-15:
            ph = cmath.phase(amp[x])
            if abs(ph) > 1e-15:
                c.r((1 << n) + x, ph)
    # macro schedule: one step for the root X, three per level (the
    # bridged sibling rotation plus the two transfer swaps, with every
    # parent of the level acting in parallel), one for the phase layer
    active_levels = sum(
        1
        for k in range(1, n + 1)
        if any(u[z] > 1e-15 for z in range(1 << (k - 1), 1 << k))
    )
    has_phase = any(
        abs(amp[x]) > 1e-15 and abs(cmath.phase(amp[x])) > 1e-15
        for x in range(1 << n)
    )
    c.meta["step_depth"] = 1 + 3 * active_levels + (1 if has_phase else 0)
    c.meta["backend"] = "unary-tree"
    return c


def _parity_fold_gates(n, i):
    """CNOT rounds writing XOR{leaf x : x_i = 1} into the root of the
    heap tree (plus the values parked on internal vertices, each counted
    once), with every other internal vertex restored."""
    sel = [(1 << n) + x for x in range(1 << n) if (x >> (n - i)) & 1]
    gates = [("cx", (leaf, leaf // 2), None) for leaf in sel]
    for d in range(n - 1, 0, -1):
        gates += [("cx", (w, w // 2), None)
                  for w in range(1 << d, 1 << (d + 1))]
    if n >= 2:
        for d in range(2, n):
            gates += [("cx", (w, w // 2), None)
                      for w in range(1 << d, 1 << (d + 1))]
        gates += [("cx", (leaf, leaf // 2), None) for leaf in sel]
    return gates


def unary_to_binary(n):
    """|0^n>|e_x> -> |x>|0^{2^n}| on the heap binary tree with 2^{n+1}-1
    vertices: unary register on the leaves, binary result on vertices 1..n.

    Each bit is parity-folded to the root and parked on its output vertex;
    parked bits re-enter later folds, which telescopes to x_s + x_{s+1}
    per slot and is undone by a chain of routed CNOTs.  The unary register
    is then erased by one pattern-controlled X per leaf, fed by tree-fanned
    copies of x where the tree is deep enough to hold them.
    """
    size = (1 << (n + 1)) - 1
    g = tree_graph(2, n=size)
    c = Circuit(size)
    for i in range(n, 0, -1):
        c.gates.extend(_parity_fold_gates(n, i))
        if i >= 2:
            chain = []
            w = i
            while w >= 1:
                chain.append(w)
                w //= 2
            chain.reverse()
            for a, b in zip(chain, chain[1:]):
                c.cx(a, b)
                c.cx(b, a)
    for s in range(n - 1, 0, -1):
        c.gates.extend(route_cnot_gates(g, s + 1, s))

    def subtree_register(z):
        reg = []
        r = 0
        while len(reg) < n:
            reg.extend(range(z << r, (z << r) + (1 << r)))
            r += 1
        return reg[:n]

    kappa = max(0, math.ceil(math.log2(n + 1)) - 1)
    levels = []
    lvl = kappa + 1
    while lvl + kappa <= n - 1:
        levels.append(lvl)
        lvl += kappa + 1
    sinks = [subtree_register(z) for lv in levels
             for z in range(1 << lv, 1 << (lv + 1))]
    fan = None
    if sinks:
        fan = copy_register(g, list(range(1, n + 1)), sinks, topology="tree")
        c.extend(fan)
    deepest = levels[-1] if levels else 0
    for x in range(1 << n):
        leaf = (1 << n) + x
        ctrls = subtree_register(leaf >> (n - deepest)) if deepest \
            else list(range(1, n + 1))
        scratch = [q for q in range(1, (1 << n))
                   if q not in ctrls and q != leaf][: max(0, n - 2)]
        c.extend(multi_controlled_x(g, ctrls, format(x, f"0{n}b"), leaf,
                                    scratch))
    if fan is not None:
        c.extend(fan.inverse())
    c.meta["backend"] = "unary-to-binary"
    return c


# -- general unitaries ------------------------------------------------------

def unitary_to_ucgs(U):
    """Exactly 2^n - 1 UCGs whose left-to-right product is U.

    Recursive cosine-sine demultiplexing: each block splits into side
    unitaries and a multiplexed Y-rotation whose target walks from qubit 1
    outward to qubit n at the leaves of the recursion.
    """
    if not isinstance(U, UnitarySpec):
        U = UnitarySpec(int(np.log2(len(U))), U)
    n = U.n
    out = []

    def demux(blocks, k):
        if k == n - 1:
            out.append(UcgSpec(n, blocks, n))
            return
        half = 1 << (n - k - 1)
        ls, rs, angles = [], [], []
        for blk in blocks:
            (u1, u2), th, (v1h, v2h) = cossin(blk, p=half, q=half,
                                              separate=True)
            ls += [u1, u2]
            rs += [v1h, v2h]
            angles.append(np.atleast_1d(th))
        demux(rs, k + 1)
        branches = [gate_matrix("ry", 2.0 * ang)
                    for th in angles for ang in th]
        out.append(UcgSpec(n, branches, k + 1))
        demux(ls, k + 1)

    demux([U.matrix], 0)
    return out


def gus_synthesize(g, U, m, verify=True):
    """Compile an arbitrary unitary on the first n qubits of g through the
    UCG sequence, one marked stage ucg_k per UCG; exact up to global phase.
    verify=False skips the simulation residual (counting-only runs)."""
    if not isinstance(U, UnitarySpec):
        U = UnitarySpec(int(np.log2(len(U))), U)
    n = U.n
    if n > 5:
        raise ValueError("dense demultiplexing is guarded to n <= 5")
    ucgs = unitary_to_ucgs(U)
    c = Circuit(g.n)
    skeletons = []
    for k, V in enumerate(ucgs, start=1):
        ck = synth_ucg(g, V, m)
        skeletons.append(ck.meta["skeleton"])
        c.extend(ck)
        c.mark(f"ucg_{k}")
    report = assemble_report(c, g, U if verify else None, m=m,
                             backend="gus-demux",
                             extra={"ucg_count": len(ucgs)},
                             key=("gus-demux", n, m, tuple(skeletons)))
    return c, report
