"""Exact simulation and verification.

A run of phase-type gates {CNOT, SWAP, X, r, rz, s, sdg} is composed
symbolically into an affine F2 map (a row mask and a constant bit per qubit)
and a phase polynomial f(y) = c + sum_s a_s <s,y> over the run's input bits:
the Walsh form theta(x) = sum_s alpha_s <s,x> that synthesis solves for
(the phase-polynomial view of Amy, Maslov and Mosca, arXiv 1303.2042).  The
composition depends on gate names and qubits only, so a circuit's `Plan`
holds it, compiled once; a call reads the angles at the plan's positions.
An unread bound circuit's plan is its template's, kept there, and reads
the circuit's angle vector without building its gates.

  * A diagonal target realized by a phase-type circuit is checked without
    simulation, in O(G + n 2^n) for G gates whatever the number of ancilla:
    the map must leave every input and ancilla bit in place, and one
    Walsh-Hadamard transform of the coefficients gives all 2^n phases.
  * Everything else runs on amplitude arrays along a key trajectory
    (`_Trajectory`), compiled from the plan once per input set: the basis
    keys before each run form an affine subspace, so each run's phase
    polynomial projects onto it, one Walsh-Hadamard transform gives the
    phase of every key of every run (as cos + i sin), and a branching gate
    (h, ry, u2) either doubles the array or mixes each entry with a fixed
    partner, read through a reshaped and reversed view.  Each step is
    compiled with the trajectory; an h step's matrix is fixed by its name,
    so its coefficient arrays are too, and a call builds them only for its
    ry and u2 gates.  The basis inputs of a unitary or UCG target run as
    one batch.

Qubit 1 is the most significant bit of a basis index; ancilla are trailing
qubits and therefore the least significant bits.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import Template, gate_matrix
from .gray import fwht, phase_from_coefficients

STATE_QUBIT_CAP = 24
UNITARY_QUBIT_CAP = 12
_PRUNE = 1e-14
_INDEX_BITS = 64  # basis indices are uint64
_BATCH = 1 << 18  # entries a batch of columns may reach


class TooLarge(ValueError):
    pass


_PHASE_GATES = {"cx", "swap", "x", "r", "rz", "s", "sdg"}
_FIXED = {"s": -2, "sdg": -1}  # their angles close every angle vector
_FIXED_ANGLES = [0.5 * math.pi, -0.5 * math.pi]


class _Run:
    """A composed run: afterwards qubit q holds <rows[q], y> xor flips[q]
    for its input basis state y, which gained the phase const + sum_s
    coef[s] <s, y> over the masks s in `terms` (the plan's terms lo..hi).
    As uint64 (nq <= 64): `masks`, the `moved` qubits' rows then the terms;
    `bits`, their own bits; `keep`, the rest; `xor`, the flips."""

    def __init__(self, rows, flips, terms, lo, own):
        self.rows, self.flips, self.terms = rows, flips, list(terms)
        self.lo, self.hi = lo, lo + len(terms)
        moved = [q for q in range(1, len(own)) if rows[q] != own[q]]
        self.moved = len(moved)
        if len(own) <= _INDEX_BITS + 1:
            self.masks = np.array([rows[q] for q in moved] + self.terms,
                                  dtype=np.uint64)
            self.bits = np.array([own[q] for q in moved], dtype=np.uint64)
            self.keep = ~np.uint64(sum(own[q] for q in moved))
            self.xor = np.uint64(sum(o for o, f in zip(own, flips) if f))


class Plan:
    """How a circuit is simulated, compiled once from its gate names and
    qubits: its runs, split at each branching gate (at `branches`, with its
    bit and, for an h, its fixed matrix).  Each r/rz/s/sdg gate is a term
    of run `runof` with a mask index (`uidx`), a sign (-1 if its qubit is
    flipped), a share of the constant phase (`cw`) and `src`, its index in
    a call's angle vector (`weights`): the r/rz angles at `angles`, then
    those of s and sdg; a call reads the params at `params`, the angles
    and then the ry/u2 gates.  Compiled from a sealed `Template`, it reads
    an unread circuit bound from it through `slots`, each param's slot.
    `projected[m]` keeps `_diagonal_check`'s term indices for m ancilla and
    `paths` the key trajectory of each input set (`_run`)."""

    def __init__(self, c):
        nq = c.n
        self.angles, self.branches, self.runs = [], [], []
        src, uidx, sign, cw, runof = [], [], [], [], []
        own = [0] + [1 << (nq - q) for q in range(1, nq + 1)]
        rows, flips, terms, lo = own.copy(), [0] * (nq + 1), {}, 0
        for k, (name, qs, _) in enumerate(c.gates):
            if name == "cx":
                a, b = qs
                rows[b] ^= rows[a]
                flips[b] ^= flips[a]
            elif name == "swap":
                a, b = qs
                rows[a], rows[b] = rows[b], rows[a]
                flips[a], flips[b] = flips[b], flips[a]
            elif name == "x":
                flips[qs[0]] ^= 1
            elif name in _PHASE_GATES:  # w <s, y>, or w (1 - <s, y>) if flipped
                (q,) = qs
                src.append(_FIXED.get(name, len(self.angles)))
                if name not in _FIXED:
                    self.angles.append(k)
                sign.append(-1.0 if flips[q] else 1.0)
                cw.append(flips[q] - (0.5 if name == "rz" else 0.0))
                uidx.append(lo + terms.setdefault(rows[q], len(terms)))
                runof.append(len(self.runs))
            else:
                (q,) = qs
                self.runs.append(_Run(rows, flips, terms, lo, own))
                self.branches.append((k, own[q],
                                      gate_matrix(name) if name == "h" else None))
                rows, flips, terms, lo = own.copy(), [0] * (nq + 1), {}, lo + len(terms)
        self.runs.append(_Run(rows, flips, terms, lo, own))
        self.src, self.uidx, self.runof = (np.array(a, dtype=np.intp)
                                           for a in (src, uidx, runof))
        self.sign, self.cw = np.array(sign), np.array(cw)
        self.params = self.angles + [k for k, _, mat in self.branches if mat is None]
        self.slots = None
        if isinstance(c, Template) and len(c.pos):
            slot = np.zeros(len(c.gates), dtype=np.intp)
            slot[c.pos] = np.arange(len(c.pos))
            self.slots = slot[self.params]
        self.projected, self.paths = {}, {}

    def weights(self, c):
        """(w, mats): the angle of every r/rz/s/sdg gate of c in plan order,
        and the 2x2 matrix of every ry/u2 gate.  The params of an
        unread circuit bound from the plan's template come from its angle
        vector by one gather, any other circuit's from its gates."""
        if c.template is not None and self.slots is not None:
            gates, p = c.template.gates, c.angles[self.slots]
        else:
            gates = c.gates
            p = [gates[k][2] for k in self.params]
        na = len(self.angles)
        w = np.concatenate([p[:na], _FIXED_ANGLES])[self.src]
        return w, [gate_matrix(gates[k][0], a)
                   for k, a in zip(self.params[na:], p[na:])]


def _plan(c):
    """c's `Plan`: its template's, compiled once and kept there, while c is
    an unread bound circuit, else a fresh one."""
    t = c.template
    if t is not None and t.plan is None:
        t.plan = Plan(t)
    return Plan(c) if t is None else t.plan


def _phase_residual(phases, theta):
    """max |f(x) - f(0) - theta(x)| with each difference wrapped to a circle."""
    err = np.remainder(phases - phases[0] - theta + math.pi, 2 * math.pi) - math.pi
    return float(np.max(np.abs(err)))


def _diagonal_check(plan, c, theta, n, m):
    """(residual, ancilla_restored) of a phase-type circuit (a one-run
    plan of c) against diag(exp(i theta)) on its first n qubits.  The
    ancilla start at |0>, so only the input bits of each row and term
    count."""
    run, nq = plan.runs[0], n + m
    rows, flips = run.rows, run.flips
    restored = not any(rows[q] >> m or flips[q] for q in range(n + 1, nq + 1))
    exact = all(rows[q] >> m == 1 << (n - q) and not flips[q]
                for q in range(1, n + 1))
    if not (restored and exact):
        return 1.0, restored
    inputs = plan.projected.get(m)
    if inputs is None:
        inputs = plan.projected[m] = np.fromiter(
            (s >> m for s in run.terms), np.intp, len(run.terms))
    alpha = np.bincount(inputs[plan.uidx], plan.weights(c)[0] * plan.sign, 1 << n)
    return _phase_residual(phase_from_coefficients(alpha), theta), True


# -- the array engine -------------------------------------------------------

def _combo(vecs, t):
    """The mask of the independent vecs whose XOR is t, or None."""
    basis = []  # (vector, mask), distinct leading bits, highest first
    for i, v in enumerate([*vecs, t]):
        mask = 1 << i
        for bv, bm in basis:
            if v ^ bv < v:
                v, mask = v ^ bv, mask ^ bm
        if not v:
            return mask ^ 1 << len(vecs)
        basis = sorted([*basis, (v, mask)], reverse=True)


def _flipper(mask, d):
    """(shape, flip) with a[z ^ mask] == a.reshape(shape)[flip].ravel() for
    z < 2^d: one axis per run of equal bits of mask, top bits first, and
    flip reverses those of the set bits."""
    cuts = [d, *(i for i in range(d - 1, 0, -1) if (mask >> i ^ mask >> i - 1) & 1), 0]
    shape = tuple(1 << hi - lo for hi, lo in zip(cuts, cuts[1:]))
    return shape, tuple(slice(None, None, -1 if mask >> lo & 1 else 1)
                        for lo in cuts[1:])


def _coefs(on, view, mat):
    """The coefficients of a branching step with matrix mat.  A grow has
    one array, mat[out, on(z)] for output row out and entry z; a mix has
    mat[on(z), on(z)] for entry z itself and mat[on(z), 1 - on(z)] for its
    partner, the latter one scalar when mat[1, 0] == mat[0, 1]."""
    if view is None:
        return (np.where(on, mat[:, 1:], mat[:, :1]),)
    partner = (mat[1, 0] if mat[1, 0] == mat[0, 1]
               else np.where(on, mat[1, 0], mat[0, 1]))
    return np.where(on, mat[1, 1], mat[0, 0]), partner


class _Trajectory:
    """The keys a plan's gates reach from the basis inputs c + sum_i z_i B_i
    (sums over F2), compiled once from the plan.  Before each run the keys
    are still c + sum_i z_i B_i, entry z of the amplitude array, for c and B
    mapped through the runs so far.  A term s of a run adds <s, key> =
    <s, c> xor <sigma(s), z>, sigma(s)_i = <s, B_i>, so the weights bin by
    sigma into one row per run (`offs`, `widths`) and one Walsh transform of
    the rows gives every key's phase in every run, taken as cos + i sin of
    the transform of weights pre-scaled by -1/2.  A branching gate on bit
    b, with `on` bit b of each key, either grows (e_b is not in the span: c
    and B drop bit b, e_b joins B on top, the array doubles) or mixes entry
    z with z ^ I, whose key differs in bit b alone (e_b = sum over I of B_i,
    read through a reshaped and reversed view).  Each step is compiled to
    (view, on, coefs): an h step's coefficient arrays are built here from
    its fixed matrix, and only ry/u2 steps build theirs from a call's
    matrices.  Only grown vectors pair: the inputs are separate states."""

    def __init__(self, plan, c, inputs):
        vec = np.array([c, *inputs], dtype=np.uint64)  # c, then B
        j = d = len(inputs)
        rows, parity = [], []  # per term: its row index, <s, c>
        self.offs, self.widths, self.steps, size = [], [], [], 0
        for r, run in enumerate(plan.runs):
            self.offs.append(size if run.hi > run.lo or not r else -1)
            par = np.bitwise_count(vec[:, None] & run.masks) & 1
            rows.append(size + (1 << np.arange(d)) @ par[1:, run.moved:])
            parity.append(par[0, run.moved:])
            if run.moved:
                vec = (vec & run.keep) | (par[:, :run.moved].astype(np.uint64)
                                          @ run.bits)
            if self.offs[-1] >= 0:
                self.widths.append(d)
                size += 1 << d
            vec[0] ^= run.xor
            if r == len(plan.branches):
                break
            _, bit, mat = plan.branches[r]
            hit = (vec & np.uint64(bit)) != 0
            lam = int((1 << np.arange(d)) @ hit[1:])
            on = (np.bitwise_count(np.arange(1 << d, dtype=np.uint64) & np.uint64(lam))
                  & 1).astype(bool) ^ hit[0] if lam else hit[0]
            pair = _combo(vec[1 + j:].tolist(), bit)
            view = pair and _flipper(pair << j, d)
            if view:
                on = on.reshape(view[0])
            self.steps.append((view, on, mat is not None and _coefs(on, view, mat)))
            if pair is None:
                vec = np.append(vec & ~np.uint64(bit), np.uint64(bit))
                d += 1
        keys = vec[:1]
        for v in vec[1:]:
            keys = np.concatenate([keys, keys ^ v])
        self.keys, self.cols = keys, np.arange(1 << d) & (1 << j) - 1
        flip = np.concatenate(parity)[plan.uidx]
        self.bins = np.concatenate([np.concatenate(rows)[plan.uidx],
                                    np.array(self.offs)[plan.runof]])
        # a phase is the transform of w fac[0] at its row's index sigma plus
        # w fac[1] at its row's 0 (the constant, from plan.cw), each -1/2 w's
        self.fac = -0.5 * np.stack([plan.sign * (1 - 2.0 * flip),
                                    -2 * plan.cw - plan.sign])
        self.size, self.start = size, 1 << j

    def evolve(self, w, mats):
        """Amplitudes of every key from a circuit's `Plan.weights`."""
        t = fwht(np.bincount(self.bins, (w * self.fac).ravel(), self.size), self.widths)
        phase = np.empty(self.size, dtype=complex)
        np.cos(t, out=phase.real)
        np.sin(t, out=phase.imag)
        amp, mats = phase[:self.start], iter(mats)
        for off, (view, on, coefs) in zip(self.offs[1:], self.steps):
            coefs = coefs or _coefs(on, view, next(mats))
            if view is None:  # amp[z + out 2^d] = mat[out, on(z)] amp[z]
                amp = (coefs[0] * amp).ravel()
            else:
                a = amp.reshape(view[0])
                amp = (coefs[0] * a + coefs[1] * a[view[1]]).ravel()
            if off >= 0:
                amp = amp * phase[off:off + len(amp)]
        return amp


def _run(c, plan, basis=0, ncols=0, shift=0):
    """(column, key, amplitude) arrays of the states c makes from the basis
    inputs basis xor (x << shift), x < 2^ncols, column x.  Each chunk of
    columns runs as one batch along its trajectory, kept on the plan when
    one chunk holds every column.  Amplitudes that cancel stay as zeros."""
    if c.n > _INDEX_BITS:
        raise TooLarge(f"{c.n} qubits beyond sparse index width")
    j = min(ncols, max(0, _BATCH.bit_length() - 1 - min(len(plan.branches), c.n)))
    weights, parts = plan.weights(c), []
    for lo in range(0, 1 << ncols, 1 << j):
        key = (basis ^ lo << shift, shift, j)
        path = plan.paths.get(key) or _Trajectory(
            plan, key[0], [1 << shift + i for i in range(j)])
        if j == ncols:
            plan.paths[key] = path
        parts.append((path.cols + lo, path.keys, path.evolve(*weights)))
    return tuple(np.concatenate(a) if len(parts) > 1 else a[0] for a in zip(*parts))


def _live(c, basis=0, ncols=0):
    """`_run` of c on a fresh plan, only entries with |amplitude| > _PRUNE."""
    cols, idx, amp = _run(c, Plan(c), basis, ncols)
    live = np.abs(amp) > _PRUNE
    return cols[live], idx[live], amp[live]


def sparse_run(c, basis=0):
    """Sparse exact state evolution from a basis state, as a dict
    basis-int -> amplitude."""
    _, idx, amp = _live(c, basis)
    return dict(zip(idx.tolist(), amp.tolist()))


def simulate(c, mode="state", basis=0):
    """Exact simulation.

    mode 'state': statevector from |basis> (|0..0> by default); returns a
    dense vector for n <= 16, else the sparse dict.  mode 'unitary': full
    matrix.
    """
    n = c.n
    if mode == "state":
        if n > STATE_QUBIT_CAP:
            raise TooLarge(f"{n} qubits > cap {STATE_QUBIT_CAP}")
        if not 0 <= basis < 1 << n:
            raise ValueError(f"basis {basis} not in 0..{(1 << n) - 1}")
        if n > 16:
            return sparse_run(c, basis)
        _, idx, amp = _live(c, basis)
        vec = np.zeros(1 << n, dtype=complex)
        vec[idx] = amp
        return vec
    if mode == "unitary":
        if n > UNITARY_QUBIT_CAP:
            raise TooLarge(f"{n} qubits > cap {UNITARY_QUBIT_CAP}")
        cols, idx, amp = _live(c, 0, n)
        u = np.zeros((1 << n, 1 << n), dtype=complex)
        u[idx, cols] = amp
        return u
    raise ValueError(f"unknown mode {mode!r}")


def ucg_matrix(spec):
    """Dense matrix of a uniformly controlled gate."""
    n, t = spec.n, spec.target
    size = 1 << n
    u = np.zeros((size, size), dtype=complex)
    tb = 1 << (n - t)
    for x in range(size):
        # branch index: the bits of x other than the target's, in order
        br = spec.branches[(x >> (n - t + 1)) << (n - t) | (x & (tb - 1))]
        col = (x >> (n - t)) & 1
        u[x & ~tb, x] += br[0, col]
        u[x | tb, x] += br[1, col]
    return u


def _target_matrix(target):
    if hasattr(target, "matrix"):
        return np.asarray(target.matrix, dtype=complex)
    if hasattr(target, "branches"):
        return ucg_matrix(target)
    raise TypeError(f"no matrix form for {type(target).__name__}")


def verify_target(c, target, m=None):
    """(residual, ancilla_restored) against a diagonal/state/unitary/UCG
    target on the first n qubits; trailing qubits are ancilla expected to
    return to |0..m>.  The residual is a non-negative float or NaN."""
    n = target.n
    if m is None:
        m = c.n - n
    if c.n != n + m:
        raise ValueError("size mismatch")
    plan = _plan(c)
    size = 1 << n
    theta = getattr(target, "theta", None)
    if theta is not None:
        theta = np.asarray(theta, dtype=float)
        if len(plan.runs) == 1:  # phase-type
            return _diagonal_check(plan, c, theta, n, m)
    state = hasattr(target, "amplitudes")
    if theta is None and not state and n > UNITARY_QUBIT_CAP:
        raise TooLarge(f"{n}-qubit matrix target > cap {UNITARY_QUBIT_CAP}")
    cols, idx, amp = _run(c, plan, 0, 0 if state else n, m)
    anc = (idx & np.uint64((1 << m) - 1)) != 0
    leak = np.abs(amp[anc])
    cols, idx, amp = cols[~anc], (idx[~anc] >> np.uint64(m)).astype(np.intp), amp[~anc]

    if state:
        inner = np.vdot(np.asarray(target.amplitudes, dtype=complex)[idx], amp)
        return float(np.maximum(1.0 - abs(inner), 0.0)), float(np.sum(leak**2)) <= 1e-10
    restored = not np.any(leak > 1e-10)
    if theta is not None:  # diagonal, circuit not phase-type
        diag = np.zeros(size, dtype=complex)
        home = idx == cols
        diag[cols[home]] = amp[home]
        if np.any(1.0 - np.abs(diag) ** 2 > 1e-9):
            return 1.0, restored
        return _phase_residual(np.angle(diag), theta), True

    # unitary or UCG target
    u = _target_matrix(target)
    out = np.zeros((size, size), dtype=complex)
    out[idx, cols] = amp
    # the global phase from the overlap: one entry's phase can be rounding
    # noise when the circuit leaves that entry near zero
    ph = np.vdot(u, out)
    if abs(ph) < 1e-12 * size:
        return 1.0, restored
    ph /= abs(ph)
    return float(np.max(np.abs(out - ph * u))), restored


def _phase_type(c):
    """Whether c is one run of phase-type gates (a one-run plan)."""
    return (len(_plan(c).runs) == 1 if c.template is not None
            else _PHASE_GATES.issuperset([gate[0] for gate in c.gates]))


def assemble_report(c, g, target=None, m=None, backend="", extra=None):
    """The report of c on g.  Scan and plan of an unread bound circuit are
    its template's, kept there (the template's gates are c's but for the
    angles), so such a report builds none of c's gates; any other circuit,
    or one whose stage marks are no longer the template's, is scanned and
    planned afresh.  The angles are always read from c, so verification is
    a check of c itself; a target beyond the simulation caps is reported
    "not simulated"."""
    t = c.template
    if t is None or c.meta.get("marks") is not t.meta.get("marks"):
        t = c
    depth, size, twoq, bad, stages = t.scan(g)
    residual = restored = None
    if target is not None:
        n = target.n
        if m is None:
            m = c.n - n
        # a diagonal realized by a phase-type circuit is checked in
        # O(G + n 2^n) without simulation, so only n is capped for it
        residual = "not simulated"
        if n + m <= STATE_QUBIT_CAP or (n <= STATE_QUBIT_CAP and hasattr(
                target, "theta") and _phase_type(c)):
            try:
                residual, restored = verify_target(c, target, m)
            except TooLarge:
                pass
    report = {
        "depth": depth,
        "size": size,
        "two_qubit": twoq,
        "violations": [{"g": name, "q": list(qs)} for name, qs, _ in bad],
        "backend": backend,
        "residual": residual,
        "ancilla_restored": restored,
    }
    if stages:
        report["stages"] = [dict(row) for row in stages]
    if extra:
        report.update(extra)
    return report
