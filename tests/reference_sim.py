"""Reference simulator for the tests: the per-gate engines that `qgsynth.sim`
used before it composed phase-type runs symbolically.

A computational basis state is pushed through a phase-type circuit one gate
at a time, and anything else runs as a dict basis-int -> amplitude, one dict
comprehension per gate.  Slow, but every gate is applied literally, so it is
the oracle the array engine in `qgsynth.sim` is checked against.
"""

import cmath
import math

import numpy as np

from qgsynth.circuit import gate_matrix
from qgsynth.sim import ucg_matrix

_PRUNE = 1e-14
_PHASE_GATES = {"cx", "swap", "x", "r", "rz", "s", "sdg"}


def f2_matrix(c):
    """Linear map of a CNOT/SWAP-only circuit as row bitmasks, one gate at a
    time: row i (1-based qubit) is the mask of input qubits XORed into
    output qubit i."""
    rows = [0] + [1 << (c.n - q) for q in range(1, c.n + 1)]
    for name, qs, _ in c.gates:
        if name not in ("cx", "swap"):
            raise ValueError(f"not a CNOT-only circuit: {name}")
        a, b = qs
        if name == "cx":
            rows[b] ^= rows[a]
        else:
            rows[a], rows[b] = rows[b], rows[a]
    return rows[1:]


def is_phase_circuit(c):
    return all(name in _PHASE_GATES for name, _, _ in c.gates)


def run_phase_basis(c, x):
    """(output basis int, accumulated phase) for a phase-type circuit."""
    n = c.n
    b = x
    phase = 0.0
    for name, qs, p in c.gates:
        if name == "cx":
            cq, tq = qs
            if (b >> (n - cq)) & 1:
                b ^= 1 << (n - tq)
        elif name == "r":
            if (b >> (n - qs[0])) & 1:
                phase += p
        elif name == "rz":
            phase += 0.5 * p if (b >> (n - qs[0])) & 1 else -0.5 * p
        elif name == "s":
            if (b >> (n - qs[0])) & 1:
                phase += 0.5 * math.pi
        elif name == "sdg":
            if (b >> (n - qs[0])) & 1:
                phase -= 0.5 * math.pi
        elif name == "x":
            b ^= 1 << (n - qs[0])
        else:  # swap
            aq, bq = qs
            abit = (b >> (n - aq)) & 1
            bbit = (b >> (n - bq)) & 1
            if abit != bbit:
                b ^= (1 << (n - aq)) | (1 << (n - bq))
    return b, phase


def sparse_run(c, basis=0):
    """Sparse exact state evolution from a basis state, gate by gate."""
    n = c.n
    state = {basis: 1.0 + 0.0j}
    for name, qs, p in c.gates:
        if name == "cx":
            cq, tq = qs
            cb, tb = 1 << (n - cq), 1 << (n - tq)
            state = {(b ^ tb if b & cb else b): a for b, a in state.items()}
        elif name == "swap":
            aq, bq = qs
            ab, bb = 1 << (n - aq), 1 << (n - bq)
            new = {}
            for b, a in state.items():
                x, y = b & ab, b & bb
                if (x == 0) != (y == 0):
                    b ^= ab | bb
                new[b] = a
            state = new
        elif name == "x":
            tb = 1 << (n - qs[0])
            state = {b ^ tb: a for b, a in state.items()}
        elif name in ("r", "rz", "s", "sdg"):
            if name == "r":
                p0, p1 = 1.0, cmath.exp(1j * p)
            elif name == "rz":
                p0, p1 = cmath.exp(-0.5j * p), cmath.exp(0.5j * p)
            elif name == "s":
                p0, p1 = 1.0, 1j
            else:
                p0, p1 = 1.0, -1j
            tb = 1 << (n - qs[0])
            state = {b: a * (p1 if b & tb else p0) for b, a in state.items()}
        else:  # h, ry, u2: branching gate
            m = gate_matrix(name, p)
            tb = 1 << (n - qs[0])
            new = {}
            for b, a in state.items():
                b0 = b & ~tb
                b1 = b | tb
                if b & tb:
                    c0, c1 = m[0, 1] * a, m[1, 1] * a
                else:
                    c0, c1 = m[0, 0] * a, m[1, 0] * a
                if c0:
                    new[b0] = new.get(b0, 0.0) + c0
                if c1:
                    new[b1] = new.get(b1, 0.0) + c1
            state = {b: a for b, a in new.items() if abs(a) > _PRUNE}
    return state


def dense_state(c, basis=0):
    vec = np.zeros(1 << c.n, dtype=complex)
    for b, a in sparse_run(c, basis).items():
        vec[b] = a
    return vec


def wrap_angle(a):
    """Wrap to (-pi, pi]."""
    a = math.fmod(a, 2 * math.pi)
    if a > math.pi:
        a -= 2 * math.pi
    elif a <= -math.pi:
        a += 2 * math.pi
    return a


def verify_target(c, target, m=None):
    """(residual, ancilla_restored), one basis input at a time."""
    n = target.n
    if m is None:
        m = c.n - n
    anc_mask = (1 << m) - 1

    if hasattr(target, "theta"):  # diagonal
        theta = np.asarray(target.theta, dtype=float)
        phase_mode = is_phase_circuit(c)
        phases = np.empty(1 << n)
        for x in range(1 << n):
            bx = x << m
            if phase_mode:
                b, ph = run_phase_basis(c, bx)
                if b != bx:
                    return 1.0, (b & anc_mask) == 0
            else:
                state = sparse_run(c, bx)
                amp = state.get(bx, 0.0)
                if 1.0 - abs(amp) ** 2 > 1e-9:
                    anc_ok = all(
                        (b & anc_mask) == 0 or abs(a) <= 1e-10
                        for b, a in state.items()
                    )
                    return 1.0, anc_ok
                ph = cmath.phase(amp)
            phases[x] = ph
        residual = max(
            abs(wrap_angle(phases[x] - phases[0] - theta[x]))
            for x in range(1 << n)
        )
        return residual, True

    if hasattr(target, "amplitudes"):  # state
        state = sparse_run(c, 0)
        v = np.asarray(target.amplitudes, dtype=complex)
        inner = 0.0 + 0.0j
        off_mass = 0.0
        for b, a in state.items():
            if b & anc_mask:
                off_mass += abs(a) ** 2
            else:
                inner += np.conj(v[b >> m]) * a
        return 1.0 - abs(inner), off_mass <= 1e-10

    # unitary or UCG target
    u = (np.asarray(target.matrix, dtype=complex) if hasattr(target, "matrix")
         else ucg_matrix(target))
    size = 1 << n
    cols = np.zeros((size, size), dtype=complex)
    restored = True
    for x in range(size):
        for b, a in sparse_run(c, x << m).items():
            if b & anc_mask:
                if abs(a) > 1e-10:
                    restored = False
            else:
                cols[b >> m, x] += a
    # the global phase from the overlap: one entry's phase can be rounding
    # noise when the circuit leaves that entry near zero
    ph = np.vdot(u, cols)
    if abs(ph) < 1e-12 * size:
        return 1.0, restored
    ph /= abs(ph)
    return float(np.max(np.abs(cols - ph * u))), restored
