"""Gate-level IR over {1-qubit gates, CNOT} with a SWAP macro.

Gates are stored as plain tuples (name, qubits, param) to keep circuits with
~10^6 gates cheap.  `param` is an angle for r/rz/ry, a 2x2 ndarray for u2
(a gate only `add` makes; JSON refuses it), and None otherwise; `qubits` is
a tuple.  Qubits are 1-based, matching graph vertices; ancilla are the
trailing `ancilla` qubits by convention.

A pipeline builds one circuit and calls `mark(name)` at the end of each
stage.  Depth, size, two-qubit count, the connectivity audit and the
per-stage rows come from one pass over the gates, `_scan`; metrics, audit
and synthesis report are its views.

A diagonal's gates depend only on the graph, n and m; its angles enter as
the Walsh coefficients alpha = solve_phase_coefficients(theta), one per
rotation.  A diagonal builder therefore emits a `Template`: a circuit with
an empty rotation slot wherever an angle goes.  `Template.bind(alpha)`
returns the template plus its angle vector, so one template serves every
theta; a UCG cascade's template splices its diagonals' and is bound to one
vector of every coefficient.  A `Bound` circuit builds its gates when they
are first read: reports and `sim` read the template, which keeps the gate
scan (`Template.scan`) and simulation plan (`sim.Plan`), and the vector.

`Template.seal` runs one commutation-aware pass (`_cancelled`) that drops
every pair of equal CNOTs whose gates in between all commute with them,
within each stage; it keeps every slot and every stage's unitary.  It runs
once per template, in the builder that seals it, so candidates are
compared as cancelled and a warm call pays nothing.
"""

from __future__ import annotations

import cmath
import gc
import json
import math
from itertools import compress, islice

import numpy as np

ONE_QUBIT = {"r", "rz", "ry", "h", "s", "sdg", "x", "u2"}
TWO_QUBIT = {"cx", "swap"}
PARAM_GATES = {"r", "rz", "ry"}

_SQ2 = 1.0 / math.sqrt(2.0)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


class ParseError(ValueError):
    pass


def gate_matrix(name, param=None):
    """2x2 matrix of a 1-qubit gate."""
    if name == "r":
        return np.array([[1, 0], [0, cmath.exp(1j * param)]], dtype=complex)
    if name == "rz":
        return np.array(
            [[cmath.exp(-0.5j * param), 0], [0, cmath.exp(0.5j * param)]],
            dtype=complex,
        )
    if name == "ry":
        c, s = math.cos(param / 2), math.sin(param / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "h":
        return _H
    if name == "s":
        return _S
    if name == "sdg":
        return _S.conj()
    if name == "x":
        return _X
    if name == "u2":
        return param
    raise ValueError(f"not a 1-qubit gate: {name}")


class Circuit:
    __slots__ = ("n", "ancilla", "gates", "meta")
    template = None  # the sealed template of an unread `Bound` circuit

    def __init__(self, n, ancilla=0, gates=None):
        self.n = n
        self.ancilla = ancilla
        self.gates = list(gates) if gates else []
        self.meta = {}

    # -- builders -----------------------------------------------------------
    def add(self, name, qubits, param=None):
        if name in ONE_QUBIT:
            (q,) = qubits
            if not 1 <= q <= self.n:
                raise ValueError(f"qubit {q} out of range")
        else:
            a, b = qubits
            if a == b:
                raise ValueError("two-qubit gate needs distinct qubits")
            for q in (a, b):
                if not 1 <= q <= self.n:
                    raise ValueError(f"qubit {q} out of range")
        self.gates.append((name, tuple(qubits), param))

    def swap(self, a, b):
        self.add("swap", (a, b))

    def mark(self, name):
        """End stage `name` here: the gates since the previous mark are its.
        The marks are a tuple, replaced by each mark: a circuit bound from a
        template shares the template's until it replaces its own."""
        self.meta["marks"] = (*self.meta.get("marks", ()),
                              (name, len(self.gates)))

    def extend(self, other):
        if isinstance(other, Circuit):
            self.gates.extend(other.gates)
        else:
            self.gates.extend(other)

    # -- transforms ---------------------------------------------------------
    def expanded(self):
        """A copy with SWAP macros expanded to 3 CNOTs."""
        c = Circuit(self.n, self.ancilla)
        for name, qs, p in self.gates:
            if name == "swap":
                a, b = qs
                c.gates.append(("cx", (a, b), None))
                c.gates.append(("cx", (b, a), None))
                c.gates.append(("cx", (a, b), None))
            else:
                c.gates.append((name, qs, p))
        return c

    def metrics(self):
        """(depth, size, two_qubit_count) with greedy ASAP layering after
        macro expansion."""
        return _scan(self.template or self)[:3]

    def scan(self, g):
        """`_scan` of this circuit against g's edges."""
        return _scan(self, g._pairs)


class Template(Circuit):
    """A circuit with its rotation angles left as slots.

    Slot k is the gate at index pos[k], a placeholder (name, (q,), None),
    shared per name and qubit, whose angle is params[idx[k]]: the alpha of
    a diagonal on `inputs` qubits, or a UCG cascade's (`inputs` None, see
    states.py).  Builders add slots with `rot`, `rots` and `splice`; `seal`
    freezes them into int32 arrays; every r, rz and ry gate is a slot.  The
    report fields (`backend`, `extra`), the gate scan and the simulation
    plan (`plan`, set by `sim`) do not depend on the angles either, so a
    sealed template carries them for every circuit bound from it."""

    __slots__ = ("inputs", "pos", "idx", "backend", "extra", "plan",
                 "_empty", "_heads", "_scanned")

    def __init__(self, n, inputs):
        super().__init__(n)
        self.inputs = inputs
        self.pos, self.idx = [], []
        self.backend, self.extra, self.plan = "", {}, None
        self._empty = {}  # (name, qubit) -> its placeholder
        self._heads = None  # slot names and qubit tuples, on first `_fill`
        self._scanned = (None, None)  # (edge pairs, `_scan` against them)

    def rot(self, q, s, name="r"):
        """Append a `name` slot on qubit q for params[s]."""
        self.pos.append(len(self.gates))
        self.idx.append(s)
        self.gates.append(self._empty.setdefault((name, q), (name, (q,), None)))

    def rots(self, qubits, idx):
        """Append a run of r slots, on qubits[j] for alpha[idx[j]]."""
        start = len(self.gates)
        self.pos.extend(range(start, start + len(qubits)))
        self.idx.extend(idx)
        self.gates.extend([self._empty.setdefault(("r", q), ("r", (q,), None))
                           for q in qubits])

    def splice(self, t, base, swap=0):
        """Append sealed template t, its slots reading params from base on,
        with index bits 0 and `swap` exchanged if swap (see states.py)."""
        idx = t.idx
        if swap:
            flip = (idx ^ idx >> swap) & 1
            idx = idx ^ (flip | flip << swap)
        self.pos.extend((t.pos + len(self.gates)).tolist())
        self.idx.extend((idx + base).tolist())
        self.gates.extend(t.gates)

    def scan(self, g):
        """`_scan` of this sealed template against g's edges, kept with
        them: only a report on other edges scans again."""
        pairs, scan = self._scanned
        if pairs is not g._pairs and pairs != g._pairs:
            self._scanned = g._pairs, (scan := _scan(self, g._pairs))
        return scan

    def seal(self):
        """Cancel the template's CNOT pairs within each stage
        (`_cancelled`), then freeze the slots, in gate order; in a
        diagonal's template every nonzero alpha index has exactly one."""
        self.pos = np.array(self.pos, dtype=np.int32)
        self.idx = np.array(self.idx, dtype=np.int32)
        marks = self.meta.get("marks", ())
        keep = _cancelled(self.gates, [end for _, end in marks], self.n)
        if keep is not None:
            # kept[i]: the gates kept before gate i; slots are all kept
            kept = np.zeros(len(keep) + 1, dtype=np.int32)
            np.cumsum(np.frombuffer(keep, dtype=np.uint8), dtype=np.int32,
                      out=kept[1:])
            self.gates = list(compress(self.gates, keep))
            self.pos = kept[self.pos]
            if marks:
                self.meta["marks"] = tuple((name, int(kept[end]))
                                           for name, end in marks)
        assert (self.pos[1:] > self.pos[:-1]).all()
        if self.inputs is not None:
            hits = np.bincount(self.idx, minlength=1 << self.inputs)
            assert len(hits) == 1 << self.inputs
            assert hits[0] == 0 and (hits[1:] == 1).all()
        self._empty = None
        return self

    def bind(self, params):
        """A `Bound` circuit: this template with every slot's gate rotating
        by its entry of params.  It holds params[idx], one angle per slot,
        and builds no gate until its `gates` is read."""
        c = Bound.__new__(Bound)
        c.n, c.ancilla = self.n, self.ancilla
        c.template, c.angles = self, params[self.idx]
        c.meta = dict(self.meta)
        return c

    def _fill(self, angles):
        """This template's gates with slot k rotating by angles[k].  The new
        slot gates are made first and then scattered into one copy of the
        gates: made the other way round, every collection the new tuples
        trigger walks the young copy."""
        pos = self.pos.tolist()
        if self._heads is None:  # not at seal: a relabelling may follow it
            self._heads = list(zip(*map(self.gates.__getitem__, pos)))[:2]
        slots = list(zip(*self._heads, angles.tolist()))
        gates = self.gates.copy()
        for p, gate in zip(pos, slots):
            gates[p] = gate
        return gates


class Bound(Circuit):
    """A circuit bound from a sealed template.  Until `gates` is first read
    it is its `template` and `angles` (entry k rotates slot k); the first
    read builds the gates, the same tuples in every respect, and drops both,
    so from then on the list is the circuit and may be edited."""

    __slots__ = ("template", "angles")

    @property
    def gates(self):
        if self.template is not None:
            self.gates = self.template._fill(self.angles)
        return Circuit.gates.__get__(self)

    @gates.setter
    def gates(self, gates):
        self.template = self.angles = None
        Circuit.gates.__set__(self, gates)


def _cancelled(gates, ends, n):
    """The keep mask (a bytearray, 0 at a dropped gate) of one pass that
    cancels CNOT pairs on qubits 1..n, or None when it drops nothing.  A
    cx(a, b) cancels the latest live cx(a, b) when every live gate between
    them commutes with it: on a only r, rz and CNOTs from a, on b only x
    and CNOTs into b (Nam, Ross, Su, Childs and Maslov, arXiv 1710.07345).
    The gates are cut into stages at `ends`, and no pair spans two.

    Per qubit the pass keeps its live gates, a CNOT by its index and a
    one-qubit gate by its kind (-1 r or rz, -2 x, -3 any other), and walks
    back from the last.  A cancelled pair leaves both lists, so a gate that
    blocked a pair and cancels later uncovers it: the pass leaves no
    cancellable pair.  After every `chunk` gates each list is cut to its
    last `look_back` entries.  A cut only hides pairs, so the look-back is
    bounded and every pair the pass cancels is a true one."""
    keep = None
    it = enumerate(gates)
    start = 0
    chunk, look_back = 4096, 64
    for end in (*ends, len(gates)):
        live = [[] for _ in range(n + 1)]
        for left in range(max(end - start, 0), 0, -chunk):
            for i, (name, qs, _) in islice(it, min(left, chunk)):
                if name == "cx":
                    a, b = qs
                    la, lb = live[a], live[b]
                    hit = False
                    for j in reversed(la):  # past r, rz and cx(a, c)
                        if j == -1:
                            continue
                        if j >= 0 and gates[j][1][0] == a:
                            if gates[j][1][1] != b:
                                continue
                            hit = _clear_target(gates, lb, j)  # j is cx(a, b)
                        break
                    if hit:
                        la.remove(j)
                        lb.remove(j)
                        if keep is None:
                            keep = bytearray(b"\1") * len(gates)
                        keep[i] = keep[j] = 0
                    else:
                        la.append(i)
                        lb.append(i)
                elif name == "r" or name == "rz":
                    live[qs[0]].append(-1)
                else:
                    for q in qs:
                        live[q].append(-2 if name == "x" else -3)
            for held in live:
                if len(held) > 2 * look_back:
                    del held[:-look_back]
        start = end
    return keep


def _clear_target(gates, live, j):
    """Whether the live gates after j, a cx(a, b), on b (their list `live`)
    are all x or CNOTs into b from controls other than a."""
    a, b = gates[j][1]
    for k in reversed(live):
        if k == j:
            return True
        if k != -2 and (k < 0 or gates[k][1][1] != b or gates[k][1][0] == a):
            return False
    return False


def _scan(c, pairs=None):
    """(depth, size, two_qubit_count, off-edge gates, stage rows) in one
    pass: ASAP layers, a SWAP as 3 CNOTs; with `pairs` (every edge in both
    orientations) each 2-qubit gate whose pair is not in it, in gate order,
    tested against per-vertex neighbour sets built from `pairs` once.

    A marked circuit gets one row per stage with the depth, size and
    two-qubit count it adds; the depth added is the growth of the ASAP
    frontier, so every column sums to the total.  Gates after the last mark
    form a row named None; an unmarked circuit has no rows."""
    marks = c.meta.get("marks", [])
    last = [0] * (c.n + 1)
    twoq = swaps = 0
    bad = []
    rows = []
    nbr = None
    if pairs is not None:
        nbr = [set() for _ in range(c.n + 1)]
        for a, b in pairs:
            if a <= c.n:
                nbr[a].add(b)
    gates = iter(c.gates)
    start = front0 = size0 = twoq0 = 0  # gate index and totals at the last mark
    for stage, end in (*marks, (None, len(c.gates))):
        for gate in islice(gates, max(end - start, 0)):  # marks may overrun
            qs = gate[1]
            if len(qs) == 1:
                last[qs[0]] += 1
                continue
            a, b = qs
            lay = last[a]
            lb = last[b]
            if lb > lay:
                lay = lb
            if gate[0] == "swap":
                swaps += 1
                lay += 2
            last[a] = last[b] = lay + 1
            twoq += 1
            if nbr is not None and b not in nbr[a]:
                bad.append(gate)
        if marks and (stage is not None or end > start):
            front = max(last)
            rows.append({"stage": stage, "depth": front - front0,
                         "size": end + 2 * swaps - size0,
                         "two_qubit": twoq + 2 * swaps - twoq0})
            front0, size0, twoq0 = front, end + 2 * swaps, twoq + 2 * swaps
        start = end
    return max(last), len(c.gates) + 2 * swaps, twoq + 2 * swaps, bad, rows


def validate_connectivity(c, g):
    """Every 2-qubit gate whose pair is not a graph edge."""
    return (c.template or c).scan(g)[3]


# -- serialization ----------------------------------------------------------

_JSON_GATES = {"r", "rz", "ry", "h", "s", "sdg", "x", "cx", "swap"}


def circuit_to_json(c):
    """The gate-list JSON object of c.  An unread `Bound` circuit is read
    from its template, whose r, rz and ry gates are its slots in order, with
    the angles of its angle vector: no gate tuple is built.  The cyclic
    collector is paused meanwhile: the gate dicts hold no cycles, and each
    collection their allocations trigger would walk all made so far."""
    t = c.template
    angles = iter(() if t is None else c.angles.tolist())
    gates = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name, qs, p in (t or c).gates:
            if name == "u2":
                raise ParseError("u2 gates are internal-only and not serializable")
            g = {"g": name, "q": list(qs)}
            if name in PARAM_GATES:
                g["p"] = [float(p) if t is None else next(angles)]
            gates.append(g)
    finally:
        if enabled:
            gc.enable()
    return {"n": c.n, "ancilla": c.ancilla, "gates": gates}


def circuit_from_json(obj):
    if isinstance(obj, (bytes, str)):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad JSON: {e}") from None
    try:
        n = int(obj["n"])
        anc = int(obj.get("ancilla", 0))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad circuit header: {e}") from None
    if not 0 <= anc <= n:
        raise ParseError(f"bad circuit header: ancilla {anc} not in 0..{n}")
    c = Circuit(n, anc)
    for i, g in enumerate(obj.get("gates", [])):
        try:
            name = g["g"]
            qs = tuple(int(q) for q in g["q"])
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"gate {i}: {e}") from None
        if name not in _JSON_GATES:
            raise ParseError(f"gate {i}: unknown gate {name!r}")
        p = None
        if name in PARAM_GATES:
            try:
                (p,) = g["p"]
                p = float(p)
            except (KeyError, TypeError, ValueError) as e:
                raise ParseError(f"gate {i}: bad params: {e}") from None
        try:
            c.add(name, qs, p)
        except ValueError as e:
            raise ParseError(f"gate {i}: {e}") from None
    return c
