"""Uniformly controlled gates, state preparation, and general unitaries.

Everything here reduces to the diagonal backends: a uniformly controlled
gate (UCG) splits into three diagonal unitaries conjugated by fixed
single-qubit gates, an n-qubit state is a cascade of n UCGs of growing
width, and a general unitary is a sequence of 2^n - 1 UCGs obtained by
recursive cosine-sine demultiplexing.

Each UCG is lam3 . (I x SH) . lam2 . (I x HS+) . lam1 (`ucg_to_diagonals`).
Per branch e^{ia} Rz(b) Ry(c) Rz(d), lam1 = (0, d), lam2 = (-c/2, c/2) and
lam3 = (p, p + b) with p = a - (b + d)/2, each less its UCG's head entry.
A UCG of real rotations Ry(c), c in [0, pi] (the QSP stages below n, the
cosine-sine multiplexors), so emits lam2 alone.  A QSP stage's target still
holds |0> when the stage runs, and lam1 (rz(d) at width 1) leaves |0>
alone, so `qsp_synthesize` never emits it; GUS targets hold anything and
keep it.

A cascade is bound in one pass: the branches of all its UCGs go through
one ZYZ batch and their diagonal factors through one FWHT, into one angle
vector.  Its gates, up to those angles, follow from the graph, n, m and
which pieces each UCG emitted, its skeletons (see `synth_ucg`).  With
key = (backend, n, m, skeletons), g's memo keeps the cascade's template
under ("cascade", *key) and, through `assemble_report`, its gate scan under
("scan", *key): a warm call gathers one angle vector, builds no gate and
scans nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .circuit import Circuit, Template
from .diag import DiagonalSpec
from .diag_ancilla import _auto_template
from .graphs import explicit_graph
from .gray import solve_phase_coefficients
from .linear import synth_permutation
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
    (2^(n-1), 2, 2) complex array and checked for unitarity in one pass."""

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
        self.branches = _unitary(br)

    def __eq__(self, other):
        return (isinstance(other, UcgSpec) and self.n == other.n
                and self.target == other.target
                and np.array_equal(self.branches, other.branches))


_EYE = np.eye(2)[:, :, None]


def _unitary(br):
    """br, a stack of 2x2 matrices, once all are unitary."""
    t = np.ascontiguousarray(br.transpose(1, 2, 0))  # branches on the last axis
    p = t.conj()[:, :, None] * t[:, None]
    err = np.abs(p[0] + p[1] - _EYE)
    if err.max() > 1e-12:
        bad = (err > 1e-12).any(axis=(0, 1))
        raise ValueError(f"branch {bad.argmax()} is not unitary")
    return br


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
        if not np.max(np.abs(mat.conj().T @ mat - np.eye(size))) <= 1e-10:
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


def _factors(heads, branches, clean=False):
    """(theta, euler, skeletons) of UCGs with heads[k] = (n, target), n
    non-decreasing, from one ZYZ batch over their `branches` (each UCG's
    reindexed for a last target).  theta[f] holds factor f (see
    ucg_to_diagonals) of every UCG back to back, UCG k's 2^n angles from
    2 * (its first branch) on, its first angle 0; euler holds every
    branch's d, c, b, the rz/ry/rz of a width-1 UCG; skeletons[k] is as in
    synth_ucg.  With `clean`, every target still holds |0> when its UCG
    runs, where lam1 and rz(d) act as the identity: both are left zero."""
    widths = np.array([n for n, _ in heads])
    counts = 1 << (widths - 1)  # branches per UCG
    first = np.cumsum(counts) - counts
    a, b, c, d = zyz_angles_batch(branches)
    half = c / 2.0
    p = a - (b + d) / 2.0
    # rows lam2 = (-c/2, c/2), lam3 = (p, p + b), each less its UCG's head,
    # and lam1's d; lam3 and d can leave [0, 2 pi) and are reduced, while
    # lam2 stays in [-pi/2, pi], as c is in [0, pi]
    free = np.array([-half, half, p, p + b] if clean else [-half, half, p, p + b, d])
    if not np.isfinite(free).all():
        raise ValueError("angles must be finite")
    pairs = free[:4].reshape(2, 2, -1)  # pairs[f - 1, t]: factor f, target bit t
    pairs -= np.repeat(free[:4:2, first], counts, axis=1)[:, None]
    np.mod(free[2:], 2 * math.pi, out=free[2:])
    th = np.zeros((3, len(a), 2))  # th[f, z, t]: factor f, branch z, target bit t
    th[1:] = pairs.transpose(0, 2, 1)
    if not clean:
        th[0, :, 1] = free[4]
    theta = th.reshape(3, -1)
    euler = np.array([d, c, b])
    if clean:
        euler[0] = 0.0
    emitted = np.logical_or.reduceat(np.abs(theta) > 1e-14, 2 * first, axis=1).T
    ones = bisect_right(widths, 1)  # the width-1 UCGs come first, one branch each
    if ones:
        emitted[:ones] = np.abs(euler[:, :ones].T) > 1e-14
    return theta, euler, tuple((*h, tuple(e))
                               for h, e in zip(heads, emitted.tolist()))


def ucg_to_diagonals(V):
    """Three diagonal factors of a last-target UCG.

    Returns (lam1, lam2, lam3, UCG_MID_GATES): the UCG equals
    lam3 . (I x SH) . lam2 . (I x HS+) . lam1 up to a global phase, using
    H Rz H = Rx and S Rx S+ = Ry to turn the middle diagonal into the
    branch Y-rotations.  Per branch e^{ia} Rz(b) Ry(c) Rz(d), lam2 is
    Rz(c) = (-c/2, c/2), with no phase of its own, lam1 = (0, d), and
    lam3 = (p, p + b) with p = a - (b + d)/2 carries the branch phase: a
    per-branch scalar commutes with the target-only mid gates.  On a real
    rotation Ry(c), c in [0, pi], lam1 and lam3 are zero; lam1 fixes a
    target in |0>, as in every QSP stage, which therefore leaves it out.
    """
    if V.target != V.n:
        raise ValueError("ucg_to_diagonals expects target on the last qubit")
    theta = _factors([(V.n, V.n)], V.branches)[0]
    return (*(DiagonalSpec(V.n, f) for f in theta), UCG_MID_GATES)


def _last_target_branches(V):
    """V's branch table for target n, valid after exchanging the contents
    of qubits V.target and n."""
    n, t = V.n, V.target
    if t == n:
        return V.branches
    # one axis per control bit: the new last control is old qubit n, whose
    # bit moves into qubit t's place
    tensor = V.branches.reshape((2,) * (n - 1) + (2, 2))
    return np.moveaxis(tensor, n - 2, t - 1).reshape(-1, 2, 2)


def retarget_last(V):
    """Equivalent UCG with target n, valid after exchanging the contents of
    qubits V.target and n (branch table reindexed accordingly)."""
    return V if V.target == V.n else UcgSpec(V.n, _last_target_branches(V))


def _cascade_template(g, skeletons, ms):
    """Template of a UCG cascade on g, slots reading `_cascade`'s params:
    UCG k, skeleton (n, target, emitted), on qubits 1..n with ms[k]
    ancilla, marked ucg_k.  Width 1 is rz(d) ry(c) rz(b) on qubit 1; wider
    UCGs splice the automatic diagonal template for (g, n, m) per factor,
    the mid gates on qubit n, inside a swap network if target != n."""
    counts = [1 << (n - 1) for n, _, _ in skeletons]
    size = sum(counts)
    t = Template(g.n, None)
    for k, ((n, target, emitted), m) in enumerate(zip(skeletons, ms)):
        first = sum(counts[:k])
        if n == 1:
            for f, name in enumerate(("rz", "ry", "rz")):
                if emitted[f]:
                    t.rot(1, (6 + f) * size + first, name)
        else:
            perm = (synth_permutation(g, {target: n, n: target})
                    if target != n else Circuit(g.n))
            t.extend(perm)
            mid1, mid2 = ([(name, (n,), None) for name in pair]
                          for pair in UCG_MID_GATES)
            for f in range(3):
                if emitted[f]:
                    t.extend(mid1 if f == 1 else ())
                    t.splice(_auto_template(g, n, m), 2 * (f * size + first))
                    t.extend(mid2 if f == 1 else ())
            t.extend(perm.inverse())
        t.mark(f"ucg_{k + 1}")
    return t.seal()


def _cascade(g, heads, branches, key, build, clean=False):
    """(circuit, key + (skeletons,)) of the UCG cascade of `_factors`, its
    template `build(skeletons)` kept on g under ("cascade", *key,
    skeletons) and bound to the Walsh coefficients of every factor some
    UCG emits (one FWHT; the other rows are never read), then the Euler
    angles."""
    theta, euler, skeletons = _factors(heads, branches, clean)
    widths = np.array([n for n, _ in heads])
    rows = [f for f, col in enumerate(zip(*[e for n, _, e in skeletons if n > 1]))
            if True in col]
    params = np.zeros(theta.size + euler.size)
    if rows:  # rows[0]..rows[-1], one slice
        span = slice(rows[0], rows[-1] + 1)
        params[:theta.size].reshape(theta.shape)[span] = solve_phase_coefficients(
            theta[span], widths)
    params[theta.size:] = euler.ravel()
    key = (*key, skeletons)
    return g.cached(("cascade", *key), lambda: build(skeletons)).bind(params), key


def synth_ucg(g, V, m):
    """Compile a UCG on the first V.n qubits of g with m ancilla: the
    one-UCG cascade, without marks (see `_cascade_template`).

    `meta["skeleton"]` is (n, target, emitted): emitted flags the three
    pieces not skipped as all-zero, the rz/ry/rz for n = 1 and the diagonal
    factors otherwise (the mid gates go with the second); with g and m it
    fixes every gate but the angles."""
    c, key = _cascade(g, [(V.n, V.target)], _last_target_branches(V),
                      ("ucg", V.n, m), lambda s: _cascade_template(g, s, [m]))
    c.meta = {"backend": "ucg", "skeleton": key[-1][0]}
    return c


# -- QSP via a UCG cascade --------------------------------------------------

def _state_branches(v):
    """The branch tables of v's UCGs V_1..V_n (see state_to_ucgs), one
    after the other: stages 1..n-1 real, the last complex."""
    n, amp = v.n, v.amplitudes
    mags = [np.abs(amp)]  # mags[j]: the amplitude tree's level j
    for _ in range(n):
        sq = mags[0] ** 2
        mags.insert(0, np.sqrt(sq[0::2] + sq[1::2]))
    parts = [(mags[n - 1], amp)]
    if n > 1:
        parts.insert(0, (np.concatenate(mags[:n - 1]),
                         np.concatenate(mags[1:n])))
    tables = []
    for cw, below in parts:
        live = cw > 1e-15
        # branch w maps |0> to the normalised pair (p, q) below prefix w
        col = below.reshape(-1, 2) / np.where(live, cw, 1.0)[:, None]
        p, q = col[:, 0], col[:, 1]
        br = np.stack([p, -np.conj(q), q, np.conj(p)], axis=1).reshape(-1, 2, 2)
        br[~live] = np.eye(2)
        tables.append(br)
    return np.concatenate(tables)


def state_to_ucgs(v):
    """UCGs V_1..V_n with V_n..V_1 |0^n> = v.

    V_j rotates qubit j by the conditional amplitude pair of its prefix
    branch; magnitudes come from the amplitude tree and all phases fold
    into the last stage.  Zero-mass branches become identity.
    """
    if not isinstance(v, StateSpec):
        v = StateSpec(int(np.log2(len(v))), v)
    br = _state_branches(v)
    return [UcgSpec(j, br[(1 << (j - 1)) - 1:(1 << j) - 1], j)
            for j in range(1, v.n + 1)]


def _prefix_order(g):
    """Vertex order whose every prefix induces a connected subgraph.

    Path/grid/tree/star labelings already have this property; other graphs
    fall back to breadth-first order from vertex 1.
    """
    if g.kind in ("path", "grid", "tree", "star"):
        return list(range(1, g.n + 1))
    return list(g.bfs_dist(1))


def _map_gates(gates, qubits, order):
    """gates moved from the host's labels (vertex i) to g's (order[i-1]) by
    `qubits`, g's memo of qubit tuples: one lookup per gate."""
    return [(name, qubits.get(qs)
             or qubits.setdefault(qs, tuple(order[q - 1] for q in qs)), p)
            for name, qs, p in gates]


def qsp_synthesize(g, v, m, verify=True):
    """Prepare v on the first n qubits of g: |0^{n+m}> -> v x |0^m>.

    Cascade of the state's UCGs; qubits j..n+m still hold |0> while stage
    j runs, so every stage sees the full remaining register as ancilla and
    leaves out its first factor, which fixes its target j in |0>.  On
    graphs whose natural labeling has disconnected prefixes the cascade
    runs in breadth-first coordinates, on a relabelled host
    graph kept in g's memo, and a final swap network moves the state onto
    qubits 1..n.  The stages are marked ucg_1..ucg_n, then relabel for the
    swap network.
    """
    if not isinstance(v, StateSpec):
        v = StateSpec(int(np.log2(len(v))), v)
    n = v.n
    if n + m != g.n:
        raise ValueError("graph must host exactly n + m qubits")

    def build(skeletons):
        ms = range(g.n - 1, m - 1, -1)
        order = _prefix_order(g)
        if order == list(range(1, g.n + 1)):
            return _cascade_template(g, skeletons, ms)
        pos = {vtx: i + 1 for i, vtx in enumerate(order)}
        host = g.cached(("host",), lambda: explicit_graph(
            g.n, [(pos[a], pos[b]) for a, b in g.edges]))
        t = _cascade_template(host, skeletons, ms)
        t.gates = _map_gates(t.gates, g.cached(("relabel",), dict), order)
        t.extend(synth_permutation(g, {o: i + 1 for i, o in enumerate(order)}))
        t.mark("relabel")
        return t

    c, key = _cascade(g, [(j, j) for j in range(1, n + 1)],
                      _unitary(_state_branches(v)), ("qsp-cascade", n, m), build,
                      clean=True)
    report = assemble_report(c, g, v if verify else None, m=m,
                             backend="qsp-cascade", key=key)
    return c, report


# -- general unitaries ------------------------------------------------------

_UNCSD, _UNCSD_LWORK = get_lapack_funcs(("uncsd", "uncsd_lwork"), dtype=complex)


def unitary_to_ucgs(U):
    """Exactly 2^n - 1 UCGs whose left-to-right product is U.

    Recursive cosine-sine demultiplexing: each block splits into side
    unitaries and a multiplexed Y-rotation whose target walks from qubit 1
    outward to qubit n at the leaves of the recursion.  Each split is the
    LAPACK ?uncsd call of scipy.linalg.cossin(blk, p=h, q=h), with its work
    sizes, made directly.
    """
    if not isinstance(U, UnitarySpec):
        U = UnitarySpec(int(np.log2(len(U))), U)
    n = U.n
    out = []

    def demux(blocks, k):
        if k == n - 1:
            out.append(UcgSpec(n, blocks, n))
            return
        h = 1 << (n - k - 1)
        work, rwork, _ = _UNCSD_LWORK(2 * h, h, h)
        ls, rs, angles = [], [], []
        for blk in blocks:
            *_, th, u1, u2, v1h, v2h, info = _UNCSD(
                blk[:h, :h], blk[:h, h:], blk[h:, :h], blk[h:, h:],
                lwork=int(work.real), lrwork=int(rwork))
            if info:
                raise DecompositionFailure(f"?uncsd failed with info {info}")
            ls += [u1, u2]
            rs += [v1h, v2h]
            angles += th.tolist()
        demux(rs, k + 1)
        c, s = np.array([(math.cos(t), math.sin(t)) for t in angles]).T
        out.append(UcgSpec(n, np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2),
                           k + 1))
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
    c, key = _cascade(g, [(V.n, V.target) for V in ucgs],
                      np.concatenate([_last_target_branches(V) for V in ucgs]),
                      ("gus-demux", n, m),
                      lambda s: _cascade_template(g, s, [m] * len(ucgs)))
    report = assemble_report(c, g, U if verify else None, m=m,
                             backend="gus-demux",
                             extra={"ucg_count": len(ucgs)}, key=key)
    return c, report
