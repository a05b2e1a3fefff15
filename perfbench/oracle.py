"""Independent checks for serialized qgsynth circuits.

Everything here reads the JSON form of a circuit's gates (``{"g", "q",
"p"}`` dicts) with its own gate semantics, so it shares no code with
``qgsynth.sim`` or ``qgsynth.gray``.  Qubit 1 is the most significant bit of
a basis index; ancilla qubits are the trailing ones and start in |0>.

Gates arrive in chunks (`Audit.feed`), so a circuit of 10^5+ gates is never
held as JSON all at once.  Phase-type gates (cx, swap, x, r, rz, s, sdg) map
a basis state |y> to e^{i phi(y)} |A y + b>: runs of them are tracked
symbolically, every qubit holding an affine F2 form over the run's input
bits and every rotation adding its angle to the coefficient of that form.
The phase of every input then comes from one Walsh-Hadamard transform.  A
diagonal circuit never leaves this form, so it is checked without a state
vector at any ancilla count.  The first branching gate (h, ry) turns the
input columns into a dense numpy array; later phase-type runs act on it as
one permutation and one phase vector, branching gates as 2x2 matrices.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9
ANCILLA_TOL = 1e-10
DENSE_CAP = 1 << 20  # amplitudes (rows x columns) the dense stage may hold

_S_ANGLE = {"s": 0.5 * math.pi, "sdg": -0.5 * math.pi}
_SQ2 = 1.0 / math.sqrt(2.0)


class Unverifiable(ValueError):
    """The circuit needs a dense stage larger than DENSE_CAP."""


def _branching_matrix(name, p):
    if name == "h":
        return np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]])
    if name == "ry":
        c, s = math.cos(p / 2), math.sin(p / 2)
        return np.array([[c, -s], [s, c]])
    raise ValueError(f"unknown gate {name!r}")


def walsh(a):
    """Unnormalised Walsh-Hadamard transform: out[y] = sum_s (-1)^<s,y> a[s]."""
    a = np.array(a, dtype=float)
    h = 1
    while h < a.size:
        v = a.reshape(-1, 2, h)
        top = v[:, 0] + v[:, 1]
        v[:, 1] = v[:, 0] - v[:, 1]
        v[:, 0] = top
        h *= 2
    return a


class _AffineRun:
    """A run of phase-type gates over `width` input bits: forms[q] is qubit
    q's F2 mask over the inputs, consts[q] its constant bit."""

    def __init__(self, forms, width):
        self.forms = list(forms)  # index 0 unused
        self.consts = [0] * len(forms)
        self.width = width
        self.coeff = {}  # (mask, const) -> accumulated angle
        self.global_phase = 0.0

    def apply(self, name, qs, p):
        """Absorb one gate; False if it is not phase-type."""
        f, k = self.forms, self.consts
        if name == "cx":
            a, b = qs
            f[b] ^= f[a]
            k[b] ^= k[a]
        elif name == "swap":
            a, b = qs
            f[a], f[b] = f[b], f[a]
            k[a], k[b] = k[b], k[a]
        elif name == "x":
            k[qs[0]] ^= 1
        elif name in ("r", "rz", "s", "sdg"):
            if name == "rz":  # diag(e^{-ip/2}, e^{ip/2}) = e^{-ip/2} r(p)
                self.global_phase -= 0.5 * p
            angle = _S_ANGLE[name] if name in _S_ANGLE else p
            key = (f[qs[0]], k[qs[0]])
            self.coeff[key] = self.coeff.get(key, 0.0) + angle
        else:
            return False
        return True

    def phases(self):
        """phi(y) for every input y.  A form with mask s and constant c
        reads (1 - (-1)^c (-1)^<s,y>) / 2, so one Walsh transform of the
        signed coefficients gives every phase."""
        d = np.zeros(1 << self.width)
        const = self.global_phase
        for (mask, c), angle in self.coeff.items():
            d[mask] += -angle if c else angle
            const += 0.5 * angle
        return const - 0.5 * walsh(d)

    def images(self, ys):
        """Output basis index of every input in `ys`."""
        nq = len(self.forms) - 1
        out = np.zeros_like(ys)
        for q in range(1, nq + 1):
            bit = (np.bitwise_count(ys & self.forms[q]) & 1) ^ self.consts[q]
            out |= bit.astype(ys.dtype) << (nq - q)
        return out


def _wrap(a):
    return (a + math.pi) % (2 * math.pi) - math.pi


class Schedule:
    """Depth, size and CNOT count of a gate sequence on nq qubits: SWAP is
    three CNOTs and three layers, gates are scheduled as soon as possible."""

    def __init__(self, nq):
        self.last = [0] * (nq + 1)
        self.size = self.cx = 0

    def add(self, name, qs):
        if len(qs) == 2:
            k = 3 if name == "swap" else 1
            a, b = qs
            self.last[a] = self.last[b] = max(self.last[a], self.last[b]) + k
            self.size += k
            self.cx += k
        else:
            self.last[qs[0]] += 1
            self.size += 1

    @property
    def counts(self):
        """(depth, size, cnot_count)."""
        return max(self.last), self.size, self.cx


def schedule(nq, ops):
    """Schedule of (name, qubits) pairs."""
    sched = Schedule(nq)
    for name, qs in ops:
        sched.add(name, qs)
    return sched


class Audit:
    """Streams one circuit's gates: schedules them, counts gates off the
    graph's edges, and evolves the input columns |x>|0^m>
    for x < 2^n_in (n_in = 0 for state preparation)."""

    def __init__(self, nq, n_in, edges):
        self.nq, self.n_in = nq, n_in
        self.edges = {(min(u, v), max(u, v)) for u, v in edges}
        self.schedule = Schedule(nq)
        self.off_graph = 0
        self.psi = None  # dense columns, after the first branching gate
        self.run = _AffineRun(
            [0] + [1 << (n_in - q) if q <= n_in else 0 for q in range(1, nq + 1)],
            n_in)

    def feed(self, gates):
        add = self.schedule.add
        for g in gates:
            name, qs = g["g"], g["q"]
            add(name, qs)
            if len(qs) == 2 and (min(qs), max(qs)) not in self.edges:
                self.off_graph += 1
            p = g["p"][0] if "p" in g else None
            if not self.run.apply(name, qs, p):
                self._densify()
                self._branch(qs[0], _branching_matrix(name, p))

    def _densify(self):
        """Fold the pending phase-type run into the dense columns."""
        nq = self.nq
        identity = [0] + [1 << (nq - q) for q in range(1, nq + 1)]
        run = self.run
        if self.psi is None:
            if (1 << nq) << self.n_in > DENSE_CAP:
                raise Unverifiable(f"{nq} qubits x {1 << self.n_in} columns")
            xs = np.arange(1 << self.n_in, dtype=np.int64)
            self.psi = np.zeros((1 << nq, xs.size), dtype=complex)
            self.psi[run.images(xs), xs] = np.exp(1j * run.phases())
        else:
            ys = np.arange(1 << nq, dtype=np.int64)
            out = np.empty_like(self.psi)
            out[run.images(ys)] = self.psi * np.exp(1j * run.phases())[:, None]
            self.psi = out
        self.run = _AffineRun(identity, nq)

    def _branch(self, q, u):
        v = self.psi.reshape(1 << (q - 1), 2, 1 << (self.nq - q), self.psi.shape[1])
        v0, v1 = v[:, 0].copy(), v[:, 1].copy()
        v[:, 0] = u[0, 0] * v0 + u[0, 1] * v1
        v[:, 1] = u[1, 0] * v0 + u[1, 1] * v1

    def check_diagonal(self, theta):
        """(residual, ancilla_ok) against diag(e^{i theta}) on the n_in
        input qubits; residual is the largest phase error."""
        n, nq, run = self.n_in, self.nq, self.run
        theta = np.asarray(theta, dtype=float)
        if self.psi is not None:
            return self.check_columns(np.diag(np.exp(1j * theta)), n)
        ancilla_ok = all(run.forms[q] == 0 and run.consts[q] == 0
                         for q in range(n + 1, nq + 1))
        if not all(run.forms[q] == 1 << (n - q) and run.consts[q] == 0
                   for q in range(1, n + 1)):
            return math.inf, ancilla_ok
        phi = run.phases()
        err = _wrap((phi - phi[0]) - (theta - theta[0]))
        return float(np.max(np.abs(err))), ancilla_ok

    def check_columns(self, target, n):
        """(residual, ancilla_ok) of the evolved input columns against
        `target` (2^n rows, one column per input) on the first n qubits, up
        to one global phase; residual is the largest entry of
        |out - e^{i phi} target|, first order in any amplitude error."""
        self._densify()
        block = self.psi[np.arange(1 << n) << (self.nq - n)]
        leak = float(np.max(1.0 - np.sum(np.abs(block) ** 2, axis=0)))
        overlap = np.vdot(target, block)
        if abs(overlap) < 1e-12:
            return math.inf, leak <= ANCILLA_TOL
        residual = float(np.max(np.abs(block - overlap / abs(overlap) * target)))
        return residual, leak <= ANCILLA_TOL
