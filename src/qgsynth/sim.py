"""Exact simulation and verification.

A run of phase-type gates {CNOT, SWAP, X, r, rz, s, sdg} is composed
symbolically into an affine F2 map (a row mask and a constant bit per qubit)
and a phase polynomial f(y) = c + sum_s a_s <s,y> over the run's input bits:
the Walsh form theta(x) = sum_s alpha_s <s,x> that synthesis solves for.

  * A diagonal target realized by a phase-type circuit is checked without
    simulation, in O(G + n 2^n) for G gates whatever the number of ancilla:
    the map must leave every input and ancilla bit in place, and one
    Walsh-Hadamard transform of the coefficients gives all 2^n phases.
  * Everything else runs on a sparse state held as numpy arrays (basis key,
    amplitude), one composed run at a time; a branching gate (h, ry, u2)
    splits the arrays and merges duplicate keys.  The basis inputs of a
    unitary or UCG target run as one batch.

Qubit 1 is the most significant bit of a basis index; ancilla are trailing
qubits and therefore the least significant bits.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import _scan, gate_matrix
from .gray import phase_from_coefficients

STATE_QUBIT_CAP = 24
UNITARY_QUBIT_CAP = 12
_PRUNE = 1e-14
_INDEX_BITS = 64  # basis indices are uint64
_BATCH = 1 << 18  # entries a batch of columns may reach
_SLICE = 1 << 20  # parity-matrix entries computed at once


class TooLarge(ValueError):
    pass


_PHASE_GATES = {"cx", "swap", "x", "r", "rz", "s", "sdg"}


def is_phase_circuit(c):
    return all(name in _PHASE_GATES for name, _, _ in c.gates)


def _compose(gates, nq, start=0):
    """Compose gates[start:] up to the first branching gate, whose index
    (or len(gates)) is returned as `stop` with (rows, flips, coef, const):
    afterwards qubit q (1-based) holds <rows[q], y> xor flips[q] for the
    run's input basis state y, and |y> has gained the phase
    const + sum_s coef[s] <s, y>."""
    rows = [0] + [1 << (nq - q) for q in range(1, nq + 1)]
    flips = [0] * (nq + 1)
    coef = {}
    const = 0.0
    for k in range(start, len(gates)):
        name, qs, p = gates[k]
        if name == "cx":
            a, b = qs
            rows[b] ^= rows[a]
            flips[b] ^= flips[a]
            continue
        if name == "swap":
            a, b = qs
            rows[a], rows[b] = rows[b], rows[a]
            flips[a], flips[b] = flips[b], flips[a]
            continue
        (q,) = qs
        if name == "x":
            flips[q] ^= 1
            continue
        if name == "r":
            w = p
        elif name == "rz":
            w = p
            const -= 0.5 * p
        elif name in ("s", "sdg"):
            w = 0.5 * math.pi if name == "s" else -0.5 * math.pi
        else:
            return k, rows, flips, coef, const
        if flips[q]:  # w * (1 - <row, y>)
            const += w
            w = -w
        coef[rows[q]] = coef.get(rows[q], 0.0) + w
    return len(gates), rows, flips, coef, const


def f2_matrix(c):
    """Linear map of a CNOT/SWAP-only circuit as row bitmasks: row i (1-based
    qubit) is the mask of input qubits XORed into output qubit i."""
    for name, _, _ in c.gates:
        if name not in ("cx", "swap"):
            raise ValueError(f"not a CNOT-only circuit: {name}")
    return _compose(c.gates, c.n)[1][1:]


def _phase_residual(phases, theta):
    """max |f(x) - f(0) - theta(x)| with each difference wrapped to a circle."""
    err = np.remainder(phases - phases[0] - theta + math.pi, 2 * math.pi) - math.pi
    return float(np.max(np.abs(err)))


def _diagonal_check(c, theta, n, m):
    """(residual, ancilla_restored) of a phase-type circuit against
    diag(exp(i theta)) on its first n qubits.  The ancilla start at |0>, so
    only the input bits of each row and coefficient mask count."""
    nq = n + m
    _, rows, flips, coef, _ = _compose(c.gates, nq)
    restored = not any(rows[q] >> m or flips[q] for q in range(n + 1, nq + 1))
    exact = all(rows[q] >> m == 1 << (n - q) and not flips[q]
                for q in range(1, n + 1))
    if not (restored and exact):
        return 1.0, restored
    alpha = np.zeros(1 << n)
    for mask, w in coef.items():
        alpha[mask >> m] += w
    return _phase_residual(phase_from_coefficients(alpha), theta), True


# -- the array engine -------------------------------------------------------

def _apply_run(key, amp, nq, rows, flips, coef, const):
    """Apply a composed run to basis keys and amplitudes: each moved bit
    and each phase term is a parity of the key under a mask.  Bits above
    nq (the column of a batch) pass through."""
    moved = [q for q in range(1, nq + 1) if rows[q] != 1 << (nq - q)]
    if moved or coef:
        masks = np.array([rows[q] for q in moved] + list(coef), dtype=np.uint64)
        bits = np.array([1 << (nq - q) for q in moved], dtype=np.uint64)
        keep = ~np.uint64(sum(1 << (nq - q) for q in moved))
        weights = np.fromiter(coef.values(), float, len(coef))
        step = max(1, _SLICE // len(masks))  # bounds the parity matrix
        keys, amps = [], []
        for lo in range(0, len(key), step):
            k, a = key[lo:lo + step], amp[lo:lo + step]
            par = np.bitwise_count(k[:, None] & masks) & 1
            if moved:
                k = (k & keep) | (par[:, :len(moved)].astype(np.uint64) @ bits)
            if coef:
                a = a * np.exp(1j * (par[:, len(moved):] @ weights))
            keys.append(k)
            amps.append(a)
        key, amp = np.concatenate(keys), np.concatenate(amps)
    if const:
        amp = amp * complex(math.cos(const), math.sin(const))
    xor = sum(1 << (nq - q) for q in range(1, nq + 1) if flips[q])
    if xor:
        key = key ^ np.uint64(xor)
    return key, amp


def _branch(key, amp, bit, mat):
    """Apply a 1-qubit matrix on `bit`; entries that meet are summed and
    amplitudes at or below _PRUNE dropped."""
    on = (key & bit).astype(bool)
    ones = np.count_nonzero(on)
    mixed = 0 < ones < len(key)  # else nothing meets: no merge
    halves = [(h, np.where(on, a1, a0) if mixed else (a1 if ones else a0))
              for h, (a0, a1) in zip((key & ~bit, key | bit), mat)]
    halves = [(h, amp * a) for h, a in halves if mixed or a]
    key = np.concatenate([h for h, _ in halves])
    amp = np.concatenate([a for _, a in halves])
    if mixed:
        key, inv = np.unique(key, return_inverse=True)
        amp = np.bincount(inv, amp.real) + 1j * np.bincount(inv, amp.imag)
    live = np.abs(amp) > _PRUNE
    return (key, amp) if live.all() else (key[live], amp[live])


def _evolve(gates, nq, key):
    """(keys, amplitudes) of the state the gates make from basis keys."""
    amp = np.ones(len(key), dtype=complex)
    k = 0
    while True:
        k, rows, flips, coef, const = _compose(gates, nq, k)
        key, amp = _apply_run(key, amp, nq, rows, flips, coef, const)
        if k == len(gates):
            return key, amp
        name, (q,), p = gates[k]
        key, amp = _branch(key, amp, np.uint64(1 << (nq - q)),
                           gate_matrix(name, p).tolist())
        k += 1


def _run(c, inputs):
    """(column, index, amplitude) arrays of the states the circuit makes
    from each basis input; column k belongs to inputs[k].  Inputs run as
    one batch, in chunks; an entry's key holds its column above its index."""
    nq = c.n
    inputs = np.asarray(inputs, dtype=np.uint64)
    col_bits = (len(inputs) - 1).bit_length()
    if nq + col_bits > _INDEX_BITS:
        raise TooLarge(f"{nq} qubits beyond sparse index width")
    branches = sum(1 for name, _, _ in c.gates if name not in _PHASE_GATES)
    per = max(1, _BATCH >> min(branches, nq))
    parts = []
    for lo in range(0, len(inputs), per):
        key = inputs[lo:lo + per]
        if col_bits:
            key = key | np.arange(lo, lo + len(key), dtype=np.uint64) << np.uint64(nq)
        parts.append(_evolve(c.gates, nq, key))
    key = np.concatenate([k for k, _ in parts])
    cols = ((key >> np.uint64(nq)).astype(np.intp) if col_bits
            else np.zeros(len(key), dtype=np.intp))
    return cols, key & np.uint64((1 << nq) - 1), np.concatenate([a for _, a in parts])


def sparse_run(c, basis=0):
    """Sparse exact state evolution from a basis state, as a dict
    basis-int -> amplitude."""
    _, idx, amp = _run(c, [basis])
    return dict(zip(idx.tolist(), amp.tolist()))


def simulate(c, mode="state", basis=0):
    """Exact simulation.

    mode 'state'/'basis': statevector from |0..0> or |basis>; returns a dense
    vector for n <= 16, else the sparse dict.  mode 'unitary': full matrix.
    """
    n = c.n
    if mode in ("state", "basis"):
        if n > STATE_QUBIT_CAP:
            raise TooLarge(f"{n} qubits > cap {STATE_QUBIT_CAP}")
        if n > 16:
            return sparse_run(c, basis if mode == "basis" else 0)
        _, idx, amp = _run(c, [basis if mode == "basis" else 0])
        vec = np.zeros(1 << n, dtype=complex)
        vec[idx] = amp
        return vec
    if mode == "unitary":
        if n > UNITARY_QUBIT_CAP:
            raise TooLarge(f"{n} qubits > cap {UNITARY_QUBIT_CAP}")
        cols, idx, amp = _run(c, np.arange(1 << n))
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
    return to |0..m>.  The residual is a non-negative float."""
    n = target.n
    if m is None:
        m = c.n - n
    if c.n != n + m:
        raise ValueError("size mismatch")
    size = 1 << n
    theta = getattr(target, "theta", None)
    if theta is not None:
        theta = np.asarray(theta, dtype=float)
        if is_phase_circuit(c):
            return _diagonal_check(c, theta, n, m)
    state = hasattr(target, "amplitudes")
    shift = np.uint64(m)
    cols, idx, amp = _run(c, [0] if state else np.arange(size, dtype=np.uint64) << shift)
    anc = (idx & np.uint64((1 << m) - 1)) != 0
    leak = np.abs(amp[anc])
    cols, idx, amp = cols[~anc], (idx[~anc] >> shift).astype(np.intp), amp[~anc]

    if state:
        inner = np.vdot(np.asarray(target.amplitudes, dtype=complex)[idx], amp)
        return max(0.0, 1.0 - float(abs(inner))), float(np.sum(leak**2)) <= 1e-10
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
    r, s = np.unravel_index(np.argmax(np.abs(u)), u.shape)
    ph = out[r, s] / u[r, s]
    if abs(ph) < 1e-12:
        return 1.0, restored
    ph /= abs(ph)
    return float(np.max(np.abs(out - ph * u))), restored


def assemble_report(c, g, target=None, m=None, backend="", extra=None,
                    scan=None):
    """The report of c on g.  `scan` is a `_scan(c, g._pairs)` result
    computed earlier (a cached template's); verification always runs on c
    itself."""
    depth, size, twoq, bad, stages = scan or _scan(c, g._pairs)
    report = {
        "depth": depth,
        "size": size,
        "two_qubit": twoq,
        "violations": [{"g": name, "q": list(qs)} for name, qs, _ in bad],
        "backend": backend,
        "residual": None,
        "ancilla_restored": None,
    }
    if target is not None:
        n = target.n
        if m is None:
            m = c.n - n
        # a diagonal realized by a phase-type circuit is checked in
        # O(G + n 2^n) without simulation, so only n is capped for it;
        # is_phase_circuit (a pass over the gates) runs only above the cap
        if n + m <= STATE_QUBIT_CAP or (
                n <= STATE_QUBIT_CAP and hasattr(target, "theta")
                and is_phase_circuit(c)):
            residual, restored = verify_target(c, target, m)
            report["residual"] = residual
            report["ancilla_restored"] = restored
        else:
            report["residual"] = "not simulated"
    if stages:
        report["stages"] = [dict(row) for row in stages]
    if extra:
        report.update(extra)
    return report
