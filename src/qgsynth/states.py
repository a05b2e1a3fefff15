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

A cascade is bound in one pass into one angle vector.  GUS and UCG
cascades put the branches of all their UCGs through one ZYZ batch and
their factors through one FWHT.  QSP takes stages 1..n-1, real Ry
multiplexors, straight from the amplitude tree; stage n, which carries
the phases, runs the ZYZ column kernel straight on its amplitude pairs,
and one FWHT solves just the coefficients a template reads: the odd half
of every lam2, whose even half vanishes, and lam3 of stage n.  The gates,
up to the angles, follow from the graph, n, m and which pieces each UCG
emitted, its skeletons (see `synth_ucg`): g's memo keeps its template,
which keeps its scan and plan, so a warm call gathers one angle vector,
builds no gate and scans nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import Template
from .diag import (DiagonalSpec, _as_spec, _check_ancilla, _check_width,
                   _compile, _freeze)
from .diag_ancilla import _auto_template
from .graphs import explicit_graph
from .gray import solve_phase_coefficients
from .linear import synth_permutation


class DecompositionFailure(ValueError):
    pass


# -- domain types -----------------------------------------------------------

@dataclass(frozen=True)
class UcgSpec:
    """Block-diagonal gate applying branches[z] to the target qubit for
    every control word z (the non-target qubits read most significant
    first).

    Any array-like of 2x2 matrices is accepted; a copy is kept read-only
    as one (2^(n-1), 2, 2) complex array, checked for unitarity in one
    pass."""

    n: int
    branches: np.ndarray
    target: int = 0

    def __post_init__(self):
        _check_width(self.n)
        if self.target == 0:
            object.__setattr__(self, "target", self.n)
        if not 1 <= self.target <= self.n:
            raise ValueError(f"target {self.target} out of range")
        count = 1 << (self.n - 1)
        if len(self.branches) != count:
            raise ValueError(
                f"expected {count} branches, got {len(self.branches)}"
            )
        try:
            br = np.array(self.branches, dtype=complex)
        except ValueError:  # ragged: matrices of different shapes
            br = None
        if br is None or br.shape != (count, 2, 2):
            raise ValueError("branches must be 2x2")
        _freeze(self, "branches", _unitary(br))

    def __eq__(self, other):
        return (isinstance(other, UcgSpec) and self.n == other.n
                and self.target == other.target
                and np.array_equal(self.branches, other.branches))


_EYE = np.eye(2)[:, :, None]


def _unitary(br):
    """br, a stack of 2x2 matrices, once all are unitary."""
    t = np.ascontiguousarray(br.transpose(1, 2, 0))  # branches on the last axis
    p = t.conj()[:, :, None] * t[:, None]
    ok = (np.abs(p[0] + p[1] - _EYE) <= 1e-12).all(axis=(0, 1))  # NaN fails
    if not ok.all():
        raise ValueError(f"branch {ok.argmin()} is not unitary")
    return br


@dataclass(frozen=True)
class StateSpec:
    """A unit vector of 2^n amplitudes, a read-only copy."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_width(self.n)
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes must be finite")
        if abs(np.sum(np.abs(amp) ** 2) - 1.0) > 1e-12:
            raise ValueError("amplitudes must have unit norm")
        _freeze(self, "amplitudes", amp)


@dataclass(frozen=True)
class UnitarySpec:
    """A 2^n x 2^n unitary matrix, a read-only copy."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_width(self.n)
        mat = np.array(self.matrix, dtype=complex)
        size = 1 << self.n
        if mat.shape != (size, size):
            raise ValueError(f"expected a {size}x{size} matrix")
        if not np.max(np.abs(mat.conj().T @ mat - np.eye(size))) <= 1e-10:
            raise DecompositionFailure("matrix is not unitary")
        _freeze(self, "matrix", mat)


# -- UCG -> diagonals -------------------------------------------------------

def _zyz_columns(det, u):
    """`zyz_angles_batch` of a stack of 2x2 unitaries given as det, their
    determinants, and u, the rows u00, u10, u11 (u01 enters det alone)."""
    a = 0.5 * np.arctan2(det.imag, det.real)
    v = u * np.exp(-1j * a)  # v00 v10 v11
    m00, m10 = np.abs(v[:2])
    bmd, bpd = 2.0 * np.arctan2(v[1:].imag, v[1:].real)
    c = 2.0 * np.arctan2(m10, m00)
    b, d = (bpd + bmd) / 2.0, (bpd - bmd) / 2.0
    # a (near-)zero column entry leaves one phase free: put it all in b
    anti = m00 < 1e-12
    diag = (m10 < 1e-12) & ~anti
    b[anti], b[diag] = bmd[anti], bpd[diag]
    d[anti | diag] = 0.0
    return a, b, c, d


def zyz_angles_batch(u):
    """Euler angles (a, b, c, d), each an array over the stack u of 2x2
    unitaries, with u[k] = e^{ia[k]} Rz(b[k]) Ry(c[k]) Rz(d[k])."""
    x = np.asarray(u, dtype=complex).reshape(-1, 4)  # u00 u01 u10 u11
    return _zyz_columns(x[:, 0] * x[:, 3] - x[:, 1] * x[:, 2], x[:, [0, 2, 3]].T)


#: target-qubit gates between the three diagonals: apply the first pair
#: after the first diagonal and the second pair after the middle one.
UCG_MID_GATES = (("sdg", "h"), ("h", "s"))


def _factors(heads, branches):
    """(theta, euler, skeletons) of UCGs with heads[k] = (n, target), n
    non-decreasing, from one ZYZ batch over their `branches` (each UCG's
    reindexed for a last target).  theta[f] holds factor f (see
    ucg_to_diagonals) of every UCG back to back, UCG k's 2^n angles from
    2 * (its first branch) on, its first angle 0; euler holds every
    branch's d, c, b, the rz/ry/rz of a width-1 UCG; skeletons[k] is as in
    synth_ucg."""
    widths = np.array([n for n, _ in heads])
    counts = 1 << (widths - 1)  # branches per UCG
    first = np.cumsum(counts) - counts
    a, b, c, d = zyz_angles_batch(branches)
    half = c / 2.0
    p = a - (b + d) / 2.0
    # rows lam2 = (-c/2, c/2), lam3 = (p, p + b), each less its UCG's head,
    # and lam1's d; lam3 and d can leave [0, 2 pi) and are reduced, while
    # lam2 stays in [-pi/2, pi], as c is in [0, pi]
    free = np.array([-half, half, p, p + b, d])
    if not np.isfinite(free).all():
        raise ValueError("angles must be finite")
    pairs = free[:4].reshape(2, 2, -1)  # pairs[f - 1, t]: factor f, target bit t
    pairs -= np.repeat(free[:4:2, first], counts, axis=1)[:, None]
    np.mod(free[2:], 2 * math.pi, out=free[2:])
    th = np.zeros((3, len(a), 2))  # th[f, z, t]: factor f, branch z, target bit t
    th[1:] = pairs.transpose(0, 2, 1)
    th[0, :, 1] = free[4]
    theta = th.reshape(3, -1)
    euler = np.array([d, c, b])
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
    branch Y-rotations (the factors are the module docstring's).  lam3
    carries the branch phase: a per-branch scalar commutes with the
    target-only mid gates.  lam2 sums to c of the first branch over the
    target bit, so its Walsh coefficients at even indices (bit 0 clear)
    are zero to rounding: a cascade template reads only the odd ones.
    """
    if V.target != V.n:
        raise ValueError("ucg_to_diagonals expects target on the last qubit")
    theta = _factors([(V.n, V.n)], V.branches)[0]
    return (*(DiagonalSpec(V.n, f) for f in theta), UCG_MID_GATES)


def _last_target_branches(branches, n, t):
    """The branch table for target n of an n-qubit UCG with target t,
    valid after exchanging the contents of qubits t and n."""
    if t == n:
        return branches
    # one axis per control bit: the new last control is old qubit n, whose
    # bit moves into qubit t's place
    tensor = branches.reshape((2,) * (n - 1) + (2, 2))
    return np.moveaxis(tensor, n - 2, t - 1).reshape(-1, 2, 2)


def _cascade_template(g, skeletons, ms, backend, **extra):
    """Template of a UCG cascade on g, its slots reading params laid out as
    in `_ucg_params`, its report fields `backend` and `extra`: UCG k,
    skeleton (n, target, emitted), on qubits 1..n with ms[k] ancilla,
    marked ucg_k.  Width 1 is rz(d) ry(c) rz(b) on qubit 1; wider UCGs
    splice the automatic diagonal template for (g, n, m) per factor, solved
    for target n, with Walsh index bits n - target and 0 exchanged (qubits
    target and n trade places), lam2 at its odd indices alone (see
    `ucg_to_diagonals`); the mid gates go on the target."""
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
            mid1, mid2 = ([(name, (target,), None) for name in pair]
                          for pair in UCG_MID_GATES)
            for f in range(3):
                if emitted[f]:
                    t.extend(mid1 if f == 1 else ())
                    t.splice(_auto_template(g, n, m), 2 * (f * size + first),
                             n - target, odd=f == 1)
                    t.extend(mid2 if f == 1 else ())
        t.mark(f"ucg_{k + 1}")
    t.backend, t.extra = backend, extra
    return t.seal()


def _ucg_params(heads, branches):
    """(params, skeletons) of the cascade of `_factors`: the Walsh
    coefficients of its factor rows (one FWHT), then the Euler angles."""
    theta, euler, skeletons = _factors(heads, branches)
    alpha = solve_phase_coefficients(theta, tuple(n for n, _ in heads))
    return np.concatenate([alpha.ravel(), euler.ravel()]), skeletons


def synth_ucg(g, V, m, verify=True):
    """Compile a UCG on the first V.n qubits of g with m ancilla: the
    one-UCG cascade, marked ucg_1 (see `_cascade_template`); returns
    (circuit, report).

    `meta["skeleton"]` is (n, target, emitted): emitted flags the three
    pieces not skipped as all-zero, the rz/ry/rz for n = 1 and the diagonal
    factors otherwise (the mid gates go with the second); with g and m it
    fixes every gate but the angles."""
    _check_ancilla(g, V.n, m)
    params, skeletons = _ucg_params([(V.n, V.target)],
                                    _last_target_branches(V.branches, V.n, V.target))

    def build():
        t = _cascade_template(g, skeletons, [m], "ucg")
        t.meta["skeleton"] = skeletons[0]
        return t

    return _compile(g, ("cascade", "ucg", V.n, m, skeletons), build, params,
                    V, verify)


# -- QSP via a UCG cascade --------------------------------------------------

def _tree(v):
    """v's amplitude tree as a heap, node i over nodes 2i + 1 and 2i + 2:
    node w < 2^n - 1 is the magnitude of branch w's prefix of the cascade."""
    at = (1 << v.n) - 1
    tree = np.empty(2 * at + 1)
    tree[at:] = np.abs(v.amplitudes)
    while at:
        sq = tree[at:2 * at + 1] ** 2
        at >>= 1
        tree[at:2 * at + 1] = np.sqrt(sq[0::2] + sq[1::2])
    return tree


def _table(parent, below):
    """Branches [[p, -q*], [q, p*]] mapping |0> to the pair (p, q) below
    each parent over its magnitude; identity where that is <= 1e-15."""
    live = parent > 1e-15
    p, q = (below.reshape(-1, 2) / np.where(live, parent, 1.0)[:, None]).T
    br = np.stack([p, -np.conj(q), q, np.conj(p)], axis=1).reshape(-1, 2, 2)
    br[~live] = np.eye(2)
    return br


def _state_branches(v):
    """The branch tables of v's UCGs V_1..V_n (see state_to_ucgs), one
    after the other: stages 1..n-1 real, the last complex."""
    tree, size, last = _tree(v), (1 << v.n) - 1, (1 << (v.n - 1)) - 1
    return np.concatenate([_table(tree[:last], tree[1:size]),
                           _table(tree[last:size], v.amplitudes)])


@lru_cache(maxsize=None)
def _qsp_layout(n):
    """`_qsp_params`' constants for n qubits: the FWHT row widths (the
    stage-1 differences of every stage's lam2, then lam3 of stage n), each
    branch's stage head and the offsets of the stages' lam2 rows,
    read-only."""
    counts = 1 << np.arange(n)  # branches per stage, from counts - 1 on
    head, starts = np.repeat(counts - 1, counts), 2 * (counts - 1)
    head.flags.writeable = starts.flags.writeable = False
    return (*range(n), n), head, starts


def _qsp_params(v):
    """(params, skeletons) of v's cascade on clean targets: at every slot a
    template reads, bit for bit those of `_ucg_params(_state_branches(v))`
    with lam1 and rz(d) zero.  A stage j < n branch [[p, -q], [q, p]],
    p, q >= 0, has ZYZ a = b = d = +-0 and c = 2 atan2(q, p) of the same
    floats: these stages build no table, run no ZYZ and emit lam2 alone.
    Stage n's ZYZ reads its pairs (p, q) as the columns of
    [[p, -q*], [q, p*]], the identity where dead, as `_table` builds them.
    One FWHT solves the coefficients a template reads: the odd half of
    every stage's lam2 (the even half vanishes, see `ucg_to_diagonals`),
    from its stage-1 differences lam2[0::2] - lam2[1::2] at width j - 1,
    and lam3 of stage n; the even half of lam2 stays 0."""
    n, tree = v.n, _tree(v)
    size, last = (1 << n) - 1, (1 << (n - 1)) - 1  # branches; stage n's first
    widths, head, starts = _qsp_layout(n)
    live = tree[:last, None] > 1e-15  # as in _table
    col = tree[1:size].reshape(-1, 2) / np.where(live, tree[:last, None], 1.0)
    p, q = np.where(live, col, (1.0, 0.0)).T
    live = tree[last:size, None] > 1e-15
    u = np.empty((last + 1, 3), dtype=complex)  # u00 u10 u11 of each branch
    np.divide(v.amplitudes.reshape(-1, 2), np.where(live, tree[last:size, None], 1.0),
              out=u[:, :2])
    np.conj(u[:, 0], out=u[:, 2])
    u = np.where(live, u, (1.0, 0.0, 1.0)).T
    det = u[0] * u[2] - (-np.conj(u[1])) * u[1]
    # |p|^2 + |q|^2 of every branch; NaN fails
    ok = np.abs(np.concatenate([p * p + q * q, det.real]) - 1.0) <= 1e-12
    if not ok.all():
        raise ValueError(f"branch {ok.argmin()} is not unitary")
    a, b, c, d = _zyz_columns(det, u)
    half = np.concatenate([np.arctan2(q, p), c / 2.0])  # c / 2 of every branch
    lam2 = np.empty(2 * size)
    rise = half[head]  # less each stage's head entry, -c/2 of its first branch
    np.subtract(rise, half, out=lam2[0::2])
    np.add(half, rise, out=lam2[1::2])
    theta = np.empty(size + (1 << n))  # lam2's differences, lam3 of stage n
    np.subtract(lam2[0::2], lam2[1::2], out=theta[:size])
    lam3 = theta[size:]
    phase = a - (b + d) / 2.0
    np.subtract(phase, phase[0], out=lam3[0::2])
    np.add(phase, b, out=lam3[1::2])
    lam3[1::2] -= phase[0]
    np.mod(lam3, 2 * math.pi, out=lam3)
    on = np.logical_or.reduceat(np.abs(lam2) > 1e-14, starts).tolist()
    on3 = bool((np.abs(lam3 if n > 1 else b) > 1e-14).any())  # rz(b) at n = 1
    coef = solve_phase_coefficients(theta, widths, n)
    params = np.zeros(9 * size)  # `_ucg_params`' rows lam1, lam2, lam3, d, c, b
    params[2 * size + 1:4 * size:2] = coef[:size]
    params[4 * size + 2 * last:6 * size] = coef[size:]
    np.multiply(half, 2.0, out=params[7 * size:8 * size])
    params[8 * size + last:] = b
    return params, tuple((j, j, (False, on[j - 1], j == n and on3))
                         for j in range(1, n + 1))


def state_to_ucgs(v):
    """UCGs V_1..V_n with V_n..V_1 |0^n> = v.

    V_j rotates qubit j by the conditional amplitude pair of its prefix
    branch; magnitudes come from the amplitude tree and all phases fold
    into the last stage.  Zero-mass branches become identity.
    """
    v = _as_spec(StateSpec, v)
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


def _map_gates(gates, g, order):
    """gates moved from the host's labels (vertex i) to g's (order[i-1]),
    a CNOT to its edge's gate in g.cx_gates.  g's memo ("relabel",) keeps
    each moved gate: one lookup per gate."""
    moved = g.cached(("relabel",), dict)

    def move(gate):
        name, qs, p = gate
        qs = tuple(order[q - 1] for q in qs)
        return g.cx_gates[qs] if name == "cx" else (name, qs, p)

    return [moved.get(gate) or moved.setdefault(gate, move(gate))
            for gate in gates]


def qsp_synthesize(g, v, m, verify=True):
    """Prepare v on the first n qubits of g: |0^{n+m}> -> v x |0^m>.

    Cascade of the state's UCGs; qubits j..n+m still hold |0> while stage
    j runs, so every stage sees the full remaining register as ancilla and
    leaves out its first factor, which fixes its target j in |0>.  On
    graphs whose natural labeling has disconnected prefixes the cascade
    runs in breadth-first coordinates, on a relabelled host graph kept in
    g's memo, and a final swap network of CNOTs moves the state onto
    qubits 1..n.  The stages are marked ucg_1..ucg_n, then relabel for the
    swap network.
    """
    v = _as_spec(StateSpec, v)
    n = v.n
    _check_ancilla(g, n, m)
    if n + m != g.n:
        raise ValueError("graph must host exactly n + m qubits")
    params, skeletons = _qsp_params(v)

    def build():
        ms = range(g.n - 1, m - 1, -1)
        order = _prefix_order(g)
        if order == list(range(1, g.n + 1)):
            return _cascade_template(g, skeletons, ms, "qsp-cascade")
        pos = {vtx: i + 1 for i, vtx in enumerate(order)}
        host = g.cached(("host",), lambda: explicit_graph(
            g.n, [(pos[a], pos[b]) for a, b in g.edges]))
        t = _cascade_template(host, skeletons, ms, "qsp-cascade")
        t.gates = _map_gates(t.gates, g, order)
        t.extend(synth_permutation(g, {o: i + 1 for i, o in enumerate(order)}))
        t.mark("relabel")
        return t

    return _compile(g, ("cascade", "qsp-cascade", n, m, skeletons), build,
                    params, v, verify)


# -- general unitaries ------------------------------------------------------

@lru_cache(maxsize=None)
def _uncsd():
    """LAPACK's complex ?uncsd and its work-size query, bound on the first
    demultiplexing so that importing the package does not load scipy."""
    from scipy.linalg import get_lapack_funcs
    return get_lapack_funcs(("uncsd", "uncsd_lwork"), dtype=complex)


def _demux(U):
    """(heads, blocks) of U's recursive cosine-sine demultiplexing: 2^n - 1
    UCGs whose left-to-right product is U, UCG k an (n, target) in heads
    and its stack of 2x2 branches in blocks.

    Each block splits into side unitaries and a multiplexed Y-rotation
    whose target walks from qubit 1 outward to qubit n at the leaves of the
    recursion.  Each split is the LAPACK ?uncsd call of
    scipy.linalg.cossin(blk, p=h, q=h), with its work sizes, made directly.
    """
    n = U.n
    heads, out = [], []
    uncsd, uncsd_lwork = _uncsd()

    def demux(blocks, k):
        if k == n - 1:
            heads.append((n, n))
            out.append(np.array(blocks, dtype=complex))
            return
        h = 1 << (n - k - 1)
        work, rwork, _ = uncsd_lwork(2 * h, h, h)
        ls, rs, angles = [], [], []
        for blk in blocks:
            *_, th, u1, u2, v1h, v2h, info = uncsd(
                blk[:h, :h], blk[:h, h:], blk[h:, :h], blk[h:, h:],
                lwork=int(work.real), lrwork=int(rwork))
            if info:
                raise DecompositionFailure(f"?uncsd failed with info {info}")
            ls += [u1, u2]
            rs += [v1h, v2h]
            angles += th.tolist()
        demux(rs, k + 1)
        c, s = np.array([(math.cos(t), math.sin(t)) for t in angles]).T
        heads.append((n, k + 1))
        out.append(np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2))
        demux(ls, k + 1)

    demux([U.matrix], 0)
    return heads, out


def unitary_to_ucgs(U):
    """Exactly 2^n - 1 UCGs whose left-to-right product is U (`_demux`),
    each a checked `UcgSpec`."""
    return [UcgSpec(n, br, t) for (n, t), br in zip(*_demux(_as_spec(UnitarySpec, U)))]


def gus_synthesize(g, U, m, verify=True):
    """Compile an arbitrary unitary on the first n qubits of g through the
    UCG sequence, one marked stage ucg_k per UCG; exact up to global phase.
    The branches of all 2^n - 1 UCGs, each retargeted to qubit n, are
    checked for unitarity as one stack.  verify=False skips the simulation
    residual (counting-only runs)."""
    U = _as_spec(UnitarySpec, U)
    n = U.n
    _check_ancilla(g, n, m)
    if n > 5:
        raise ValueError("dense demultiplexing is guarded to n <= 5")
    heads, blocks = _demux(U)
    params, skeletons = _ucg_params(heads, _unitary(np.concatenate(
        [_last_target_branches(br, *h) for h, br in zip(heads, blocks)])))
    return _compile(g, ("cascade", "gus-demux", n, m, skeletons),
                    lambda: _cascade_template(g, skeletons, [m] * len(heads),
                                              "gus-demux", ucg_count=len(heads)),
                    params, U, verify)
