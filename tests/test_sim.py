"""Simulator, target verification, and report assembly.

Oracles: dense matrix products built directly from gate_matrix, and the
per-gate reference engine in reference_sim.py.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_sim as ref
from conftest import bound_copy
from qgsynth import circuit, sim
from qgsynth.circuit import Circuit, gate_matrix
from qgsynth.graphs import path_graph, complete_graph
from qgsynth.sim import (
    simulate,
    sparse_run,
    ucg_matrix,
    verify_target,
    assemble_report,
)
from qgsynth.diag import DiagonalSpec
from qgsynth.states import StateSpec, UcgSpec, UnitarySpec


_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def dense_unitary(c):
    """Independent dense oracle: multiply expanded gate matrices."""
    n = c.n
    u = np.eye(1 << n, dtype=complex)
    for name, qs, p in c.expanded().gates:
        g = _CX if name == "cx" else gate_matrix(name, p)
        full = apply_on(g, qs, n)
        u = full @ u
    return u


def apply_on(g, qs, n):
    """Embed a 1- or 2-qubit gate matrix acting on qubits qs (1-based,
    qubit 1 = MSB) into the full 2^n space."""
    size = 1 << n
    full = np.zeros((size, size), dtype=complex)
    k = len(qs)
    for b in range(size):
        sub = 0
        for q in qs:
            sub = (sub << 1) | ((b >> (n - q)) & 1)
        for sub2 in range(1 << k):
            amp = g[sub2, sub]
            if amp == 0:
                continue
            b2 = b
            for i, q in enumerate(qs):
                bit = (sub2 >> (k - 1 - i)) & 1
                b2 = (b2 & ~(1 << (n - q))) | (bit << (n - q))
            full[b2, b] += amp
    return full


def random_circ(rng, n, depth):
    c = Circuit(n)
    for _ in range(depth):
        if rng.random() < 0.5 and n >= 2:
            a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            c.add("cx", (int(a), int(b)))
        else:
            q = int(rng.integers(1, n + 1))
            name = rng.choice(["rz", "ry", "h", "r"])
            c.add(str(name), (q,), float(rng.uniform(-np.pi, np.pi)))
    return c


def test_simulate_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        c = random_circ(rng, n, 12)
        u = simulate(c, mode="unitary")
        assert np.max(np.abs(u - dense_unitary(c))) < 1e-12


def test_simulate_is_unitary_and_linear():
    rng = np.random.default_rng(8)
    c = random_circ(rng, 4, 20)
    u = simulate(c, mode="unitary")
    assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-12
    # linearity: state from superposed input = superposition of columns
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    v /= np.linalg.norm(v)
    out = u @ v
    acc = np.zeros(16, dtype=complex)
    for b in range(16):
        if abs(v[b]) == 0:
            continue
        col = np.zeros(16, dtype=complex)
        for k, a in sparse_run(c.expanded(), b).items():
            col[k] = a
        acc += v[b] * col
    assert np.max(np.abs(out - acc)) < 1e-12


def test_simulate_starts_from_the_basis_state():
    # X on qubit 1 (the high bit) maps |01> to |11>
    c = Circuit(2)
    c.add("x", (1,))
    assert np.flatnonzero(simulate(c, basis=1)).tolist() == [3]
    assert np.flatnonzero(simulate(c)).tolist() == [2]
    for basis in (4, -1):
        with pytest.raises(ValueError, match="not in 0..3"):
            simulate(c, basis=basis)
    with pytest.raises(ValueError, match="unknown mode"):
        simulate(c, mode="basis", basis=1)


def test_sparse_run_basis_agrees_with_dense():
    rng = np.random.default_rng(9)
    c = random_circ(rng, 3, 15)
    u = dense_unitary(c)
    for b in range(8):
        state = sparse_run(c.expanded(), b)
        col = np.zeros(8, dtype=complex)
        for k, a in state.items():
            col[k] = a
        assert np.max(np.abs(col - u[:, b])) < 1e-12


def test_f2_fast_path_matches_dense():
    rng = np.random.default_rng(10)
    n = 8
    c = Circuit(n)
    for _ in range(40):
        a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        if rng.random() < 0.3:
            c.add("swap", (int(a), int(b)))
        else:
            c.add("cx", (int(a), int(b)))
    # the plan's row masks are the literal gate-by-gate F2 map
    rows = ref.f2_matrix(c.expanded())
    assert sim.Plan(c.expanded()).runs[0].rows[1:] == rows
    for _ in range(16):
        b = int(rng.integers(0, 1 << n))
        state = sparse_run(c.expanded(), b)
        assert len(state) == 1
        (out,) = state
        want = 0
        for q in range(1, n + 1):
            want |= ((b & rows[q - 1]).bit_count() % 2) << (n - q)
        assert out == want


def test_verify_target_is_global_phase_invariant():
    rng = np.random.default_rng(11)
    n = 3
    theta = rng.uniform(0, 2 * np.pi, size=1 << n)
    spec = DiagonalSpec(n, theta)
    c = Circuit(n)
    # direct diagonal realization with r-gates on each basis state is not
    # possible gate-by-gate; use gray-free oracle circuit: phases via
    # controlled structure is overkill, so instead test phase invariance on
    # a state target.
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    from qgsynth.states import qsp_synthesize

    c, _ = qsp_synthesize(path_graph(2), StateSpec(2, v), m=0)
    res, ok = verify_target(c, StateSpec(2, v))
    assert res <= 1e-9 and ok
    # multiply target by a global phase; fidelity-style residual unchanged
    res2, ok2 = verify_target(c, StateSpec(2, v * np.exp(1.234j)))
    assert res2 <= 1e-9 and ok2


def test_verify_target_reports_a_nan_overlap_as_nan():
    # a target changed after StateSpec's checks: its residual is NaN, not 0.
    # The spec's own array is read-only: the NaN is swapped in past it
    v = StateSpec(1, [1.0, 0.0])
    object.__setattr__(v, "amplitudes", np.array([np.nan, 0.0]))
    res, ok = verify_target(Circuit(1), v)
    assert math.isnan(res) and ok
    assert math.isnan(assemble_report(Circuit(1), path_graph(1), v)["residual"])


def test_verify_diagonal_and_unitary_targets():
    rng = np.random.default_rng(12)
    from qgsynth.diag import synth_diag_noancilla

    n = 3
    theta = rng.uniform(0, 2 * np.pi, size=1 << n)
    spec = DiagonalSpec(n, theta)
    c, _ = synth_diag_noancilla(complete_graph(n), spec)
    res, ok = verify_target(c, spec)
    assert res <= 1e-9 and ok
    # wrong target detected
    bad = DiagonalSpec(n, theta + np.linspace(0, 1, 1 << n))
    res_bad, _ = verify_target(c, bad)
    assert res_bad > 1e-3


def test_ucg_matrix_block_order():
    # controls ascending MSB-first: branch index = control bits
    branches = [np.eye(2, dtype=complex) for _ in range(4)]
    branches[2] = gate_matrix("x")
    spec = UcgSpec(3, branches, 3)
    u = ucg_matrix(spec)
    # branch 2 = controls (q1,q2) = (1,0) -> basis block 100,101
    want = np.eye(8, dtype=complex)
    want[4, 4] = want[5, 5] = 0
    want[4, 5] = want[5, 4] = 1
    assert np.max(np.abs(u - want)) < 1e-14


def test_report_flags_violations_and_cap():
    g = path_graph(3)
    c = Circuit(3)
    c.add("cx", (1, 3))
    rep = assemble_report(c, g, backend="test")
    assert rep["violations"] == [{"g": "cx", "q": [1, 3]}]
    assert rep["backend"] == "test"
    # beyond the simulation cap the residual is reported as a string
    big = Circuit(30)
    big.add("h", (1,))
    rng = np.random.default_rng(13)
    v = rng.normal(size=4)
    v = v / np.linalg.norm(v)
    rep2 = assemble_report(
        big, complete_graph(30), target=StateSpec(2, v.astype(complex)), m=28
    )
    assert rep2["residual"] == "not simulated"


def test_report_on_wide_branching_diagonal_is_not_simulated():
    # a diagonal circuit with a branching gate beyond the index width: the
    # plan compiles, shows more than one run, and nothing is simulated
    c = Circuit(70)
    c.add("h", (1,))
    c.add("h", (1,))
    spec = DiagonalSpec(2, np.zeros(4))
    rep = assemble_report(c, complete_graph(70), target=spec, m=68)
    assert rep["residual"] == "not simulated"


def test_report_cheap_path_for_phase_circuits():
    # diagonal target + phase-only circuit is verified even with many
    # ancilla because each basis state stays a basis state
    from qgsynth.diag_ancilla import synth_diag_ancilla

    rng = np.random.default_rng(14)
    n = 4
    theta = rng.uniform(0, 2 * np.pi, size=1 << n)
    spec = DiagonalSpec(n, theta)
    m = 3 * n
    g = path_graph(n + m)
    c, _ = synth_diag_ancilla(g, spec, m=m)
    rep = assemble_report(c, g, target=spec, m=m, backend="ancilla")
    assert isinstance(rep["residual"], float) and rep["residual"] <= 1e-8


# -- the array engine against the per-gate reference ------------------------

_ALL_GATES = ["cx", "swap", "x", "r", "rz", "s", "sdg", "h", "ry"]
_PHASE_TYPE = ["cx", "swap", "x", "r", "rz", "s", "sdg"]


@st.composite
def circuits(draw, names=_ALL_GATES, max_gates=24):
    """(circuit, n, m): random gates from `names` on n inputs and m ancilla."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 2))
    nq = n + m
    c = Circuit(nq, m)
    for _ in range(draw(st.integers(0, max_gates))):
        name = draw(st.sampled_from(names if nq > 1 else
                                    [g for g in names if g not in ("cx", "swap")]))
        if name in ("cx", "swap"):
            a = draw(st.integers(1, nq))
            b = draw(st.integers(1, nq - 1))
            c.add(name, (a, b if b < a else b + 1))
        else:
            q = draw(st.integers(1, nq))
            p = (draw(st.floats(-math.pi, math.pi))
                 if name in ("r", "rz", "ry") else None)
            c.add(name, (q,), p)
    return c, n, m


def _diagonal_closure(c):
    """c followed by its CNOT/SWAP/X gates in reverse: a diagonal circuit
    whenever c is phase-type."""
    d = Circuit(c.n, c.ancilla, c.gates)
    d.extend([g for g in reversed(c.gates) if g[0] in ("cx", "swap", "x")])
    return d


def _agree(new, old, tol=1e-9):
    """verify_target results agree.  On a circuit that is not exact both
    report residual 1, and the new check, which looks at every input, may
    find an ancilla left dirty that the reference's first failing input
    missed."""
    (res, ok), (res_ref, ok_ref) = new, old
    assert type(res) is float and res >= 0.0
    assert isinstance(ok, bool)
    assert abs(res - max(0.0, res_ref)) <= tol
    assert ok == ok_ref or (res == 1.0 and not ok)


def _near_zero_entry():
    """A unitary case whose largest target entry meets an output entry of
    about 1e-10: a global phase taken from that one entry is rounding
    noise, one taken from the overlap is not."""
    c = Circuit(3, 1)
    for gate in ("h1 cx12 cx21 x1 x1 s2 cx12 cx12 cx21 s1 ry1 s3 "
                 "cx12 cx12 cx12 cx12 cx12 h1 h2").split():
        name = gate.rstrip("123")
        c.add(name, tuple(map(int, gate[len(name):])), 1e-10 if name == "ry" else None)
    return c, 2, 1


@given(circuits(), st.integers(0, 2**5 - 1))
@example(_near_zero_entry(), 3)
@settings(max_examples=150, deadline=None)
def test_engine_matches_reference_on_random_circuits(case, seed):
    c, n, m = case
    nq = c.n
    rng = np.random.default_rng(seed)
    basis = int(rng.integers(0, 1 << nq))
    got = np.zeros(1 << nq, dtype=complex)
    for b, a in sparse_run(c, basis).items():
        got[b] = a
    assert np.max(np.abs(got - ref.dense_state(c, basis))) < 1e-12
    assert np.max(np.abs(simulate(c) - ref.dense_state(c))) < 1e-12
    want = np.stack([ref.dense_state(c, b) for b in range(1 << nq)], axis=1)
    assert np.max(np.abs(simulate(c, mode="unitary") - want)) < 1e-12

    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = StateSpec(n, v / np.linalg.norm(v))
    _agree(verify_target(c, state, m), ref.verify_target(c, state, m))
    unitary = UnitarySpec(n, np.linalg.qr(rng.normal(size=(1 << n, 1 << n)))[0])
    _agree(verify_target(c, unitary, m), ref.verify_target(c, unitary, m))
    diag = DiagonalSpec(n, rng.uniform(0, 2 * np.pi, 1 << n))
    _agree(verify_target(c, diag, m), ref.verify_target(c, diag, m))


@given(circuits(names=_PHASE_TYPE, max_gates=30), st.booleans(),
       st.integers(0, 2**5 - 1))
@settings(max_examples=150, deadline=None)
def test_symbolic_diagonal_check_matches_reference(case, close, seed):
    c, n, m = case
    if close:
        c = _diagonal_closure(c)
    # the reference's own phases as the target, then perturbed
    phases = np.array([ref.run_phase_basis(c, x << m)[1] for x in range(1 << n)])
    theta = phases - phases[0]
    rng = np.random.default_rng(seed)
    for t in (theta, theta + rng.uniform(-1e-3, 1e-3, 1 << n)):
        spec = DiagonalSpec(n, t)
        _agree(verify_target(c, spec, m), ref.verify_target(c, spec, m))
    if close:
        res, ok = verify_target(c, DiagonalSpec(n, theta), m)
        assert res <= 1e-9 and ok


def test_engine_slices_and_batches_agree(monkeypatch):
    # a tiny bound splits the columns into chunks of one column, each run
    # along its own trajectory and none kept on the plan
    monkeypatch.setattr(sim, "_BATCH", 4)
    rng = np.random.default_rng(21)
    for n in (3, 4):
        c = random_circ(rng, n, 30)
        c.add("x", (1,))
        c.add("s", (n,))
        want = np.stack([ref.dense_state(c, b) for b in range(1 << n)], axis=1)
        assert np.max(np.abs(simulate(c, mode="unitary") - want)) < 1e-12
        plans = []
        with monkeypatch.context() as mp:
            mp.setattr(sim, "Plan", lambda c, _P=sim.Plan: plans.append(_P(c)) or plans[-1])
            res, ok = verify_target(bound_copy(c), UnitarySpec(n, want), 0)
        assert res < 1e-12 and ok and [p.paths for p in plans] == [{}]


def test_sparse_results_hold_no_cancelled_entries():
    # amplitudes that cancel stay as zeros along a trajectory, never in a
    # result: h h is the identity, and ry(0) adds no entry
    for gates in ([("h", (1,)), ("h", (1,))], [("ry", (1,), 0.0)],
                  [("h", (1,)), ("ry", (2,), 0.0), ("h", (1,))]):
        c = Circuit(max(qs[0] for _, qs, *_ in gates))
        for gate in gates:
            c.add(*gate)
        state = sparse_run(c)
        assert list(state) == [0] and abs(state[0] - 1) < 1e-15
        assert np.count_nonzero(simulate(c)) == 1
        assert np.count_nonzero(simulate(c, mode="unitary")) == 1 << c.n


@st.composite
def branching_circuits(draw):
    """(circuit, n, m, batch): random gates on n inputs and m >= 1 ancilla,
    about half of the branching gates on one qubit, so that most of them
    mix each key with a partner, and ry angles that include 0 and pi, so
    that matrix entries vanish.  Any gate may touch an ancilla and leave it
    dirty.  `batch` is the entry bound of a column chunk."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    nq = n + m
    c = Circuit(nq, m)
    focus = draw(st.integers(1, nq))
    for _ in range(draw(st.integers(1, 24))):
        name = draw(st.sampled_from(["h", "ry", "ry", "cx", "swap", "x", "r", "rz", "s"]))
        if name in ("cx", "swap"):
            a = draw(st.integers(1, nq))
            b = draw(st.integers(1, nq - 1))
            c.add(name, (a, b if b < a else b + 1))
            continue
        q = focus if name in ("h", "ry") and draw(st.booleans()) else draw(st.integers(1, nq))
        p = None
        if name == "ry":
            p = draw(st.sampled_from([0.0, math.pi, -math.pi]) | st.floats(-math.pi, math.pi))
        elif name in ("r", "rz"):
            p = draw(st.floats(-math.pi, math.pi))
        c.add(name, (q,), p)
    return c, n, m, draw(st.sampled_from([4, 64, sim._BATCH]))


@given(branching_circuits(), st.integers(0, 2**5 - 1))
@settings(max_examples=120, deadline=None)
def test_trajectory_matches_reference_on_branching_circuits(case, seed):
    c, n, m, batch = case
    rng = np.random.default_rng(seed)
    want = np.stack([ref.dense_state(c, b) for b in range(1 << c.n)], axis=1)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    targets = [StateSpec(n, v / np.linalg.norm(v)),
               UnitarySpec(n, np.linalg.qr(rng.normal(size=(1 << n, 1 << n)))[0]),
               DiagonalSpec(n, rng.uniform(0, 2 * np.pi, 1 << n))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_BATCH", batch)
        assert np.max(np.abs(simulate(c, mode="unitary") - want)) < 1e-12
        for b, amp in sparse_run(c, 1 << m).items():
            assert abs(amp - want[b, 1 << m]) < 1e-12
        bound = bound_copy(c)  # its template keeps one plan for every target
        for target in targets:
            got = verify_target(bound, target, m)
            _agree(got, ref.verify_target(c, target, m))
            assert verify_target(bound, target, m) == got  # along the kept one


@st.composite
def mixed_branching(draw):
    """(gates, nq, ncols): h, ry and u2 gates among phase-type ones on nq
    qubits, about half of the branching gates on one qubit, so that each
    kind both grows the array and mixes it; the angles and u2 matrices are
    drawn per circuit by `_with_params`.  ncols input columns run as one
    batch."""
    nq = draw(st.integers(1, 4))
    focus = draw(st.integers(1, nq))
    gates = []
    for _ in range(draw(st.integers(1, 20))):
        name = draw(st.sampled_from(["h", "ry", "u2", "cx", "x", "rz", "s"]
                                    if nq > 1 else ["h", "ry", "u2", "x", "rz", "s"]))
        if name == "cx":
            a, b = draw(st.permutations(range(1, nq + 1)))[:2]
            gates.append((name, (a, b)))
        else:
            on = name in ("h", "ry", "u2") and draw(st.booleans())
            gates.append((name, (focus if on else draw(st.integers(1, nq)),)))
    return gates, nq, draw(st.integers(0, min(nq, 2)))


def _with_params(gates, nq, rng):
    """A circuit of gates with fresh ry/rz angles and u2 matrices."""
    c = Circuit(nq)
    for name, qs in gates:
        p = None
        if name in ("ry", "rz"):
            p = float(rng.uniform(-math.pi, math.pi))
        elif name == "u2":
            p = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        c.add(name, qs, p)
    return c


# every branching kind grows (on a fresh qubit) and mixes (on it again);
# qubit 3 also holds the input column's bit
_EVERY_STEP = ([("ry", (1,)), ("h", (1,)), ("cx", (1, 2)), ("u2", (2,)),
                ("u2", (2,)), ("h", (3,)), ("rz", (3,)), ("ry", (3,))], 3, 1)


@given(mixed_branching(), st.integers(0, 2**5 - 1))
@example(_EVERY_STEP, 0)
@settings(max_examples=100, deadline=None)
def test_compiled_steps_match_reference(case, seed):
    # a trajectory compiles its steps once; the first call and a second
    # call with new angles and matrices along the kept trajectory must
    # both give the per-gate reference's amplitudes on every input column
    gates, nq, ncols = case
    rng = np.random.default_rng(seed)
    first, again = (_with_params(gates, nq, rng) for _ in range(2))
    plan = sim.Plan(first)
    basis = int(rng.integers(1 << nq)) & -(1 << ncols)
    path = sim._Trajectory(plan, basis, [1 << i for i in range(ncols)])
    assert path.start == 1 << ncols
    for c in (first, again):
        amp = path.evolve(*plan.weights(c))
        for col in range(1 << ncols):
            got = np.zeros(1 << nq, dtype=complex)
            got[path.keys[path.cols == col]] = amp[path.cols == col]
            want = ref.dense_state(c, basis ^ col)
            assert np.max(np.abs(got - want)) < 1e-12


def test_every_step_example_grows_and_mixes_each_kind():
    gates, nq, ncols = _EVERY_STEP
    c = _with_params(gates, nq, np.random.default_rng(0))
    plan = sim.Plan(c)
    path = sim._Trajectory(plan, 0, [1 << i for i in range(ncols)])
    kinds = {(c.gates[k][0], view is None)
             for (k, _, _), (view, _, _) in zip(plan.branches, path.steps)}
    assert kinds == {(name, grow) for name in ("h", "ry", "u2")
                     for grow in (True, False)}


def test_state_residual_is_a_clamped_python_float():
    from qgsynth.states import qsp_synthesize

    rng = np.random.default_rng(1)
    for n in (2, 3, 4, 5):
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        v /= np.linalg.norm(v)
        c, rep = qsp_synthesize(path_graph(n), StateSpec(n, v), 0)
        assert type(rep["residual"]) is float and 0.0 <= rep["residual"] <= 1e-9
        json.dumps(rep)
    # a target a hair above unit norm makes 1 - |<v|out>| negative
    res, ok = verify_target(Circuit(1), StateSpec(1, np.array([1 + 1e-13, 0])))
    assert type(res) is float and res == 0.0 and ok is True


# -- negative cases: each breaks exactness and must be caught ---------------

def _diag_case(m):
    from qgsynth.diag_ancilla import synth_diag_auto

    rng = np.random.default_rng(31 + m)
    n = 4
    spec = DiagonalSpec(n, rng.uniform(0, 2 * np.pi, 1 << n))
    c, rep = synth_diag_auto(path_graph(n + m), spec, m)
    assert rep["residual"] <= 1e-9 and rep["ancilla_restored"]
    return c, spec, m


def _caught(c, spec, m):
    res, ok = verify_target(c, spec, m)
    res_ref, ok_ref = ref.verify_target(c, spec, m)
    assert res > 1e-9 or not ok
    assert res_ref > 1e-9 or not ok_ref
    return res, ok


@pytest.mark.parametrize("m", [0, 12])
def test_dropped_cnot_is_caught(m):
    c, spec, m = _diag_case(m)
    k = next(i for i, g in enumerate(c.gates) if g[0] == "cx")
    bad = Circuit(c.n, c.ancilla, c.gates[:k] + c.gates[k + 1:])
    res, _ = _caught(bad, spec, m)
    assert res == 1.0


def test_perturbed_angle_is_caught():
    c, spec, m = _diag_case(0)
    k = next(i for i, g in enumerate(c.gates) if g[0] in ("r", "rz"))
    name, qs, p = c.gates[k]
    bad = Circuit(c.n, c.ancilla, c.gates)
    bad.gates[k] = (name, qs, p + 1e-6)
    res, ok = _caught(bad, spec, m)
    assert 1e-7 < res < 1e-5 and ok


def test_ancilla_left_at_one_is_caught():
    c, spec, m = _diag_case(12)
    bad = Circuit(c.n, c.ancilla, c.gates)
    bad.add("x", (spec.n + 3,))
    _, ok = _caught(bad, spec, m)
    assert not ok


def test_input_left_as_parity_is_caught():
    c, spec, m = _diag_case(12)
    bad = Circuit(c.n, c.ancilla, c.gates)
    bad.add("cx", (1, 2))
    res, ok = _caught(bad, spec, m)
    assert res == 1.0 and ok


def test_ancilla_holding_input_parity_is_not_restored():
    c, spec, m = _diag_case(12)
    bad = Circuit(c.n, c.ancilla, c.gates)
    bad.add("cx", (1, spec.n + 1))
    res, ok = verify_target(bad, spec, m)
    assert res == 1.0 and not ok


# -- a kept plan never hides a wrong circuit ---------------------------------

def _warm_keyed(kind):
    """(circuit, graph, target, m) of a second verified call of one family:
    the circuit is unread, so its scan and plan are its template's.  The
    target is the call's own for a cascade and a fresh one for a
    diagonal."""
    from qgsynth.diag_ancilla import synth_diag_auto
    from qgsynth.states import gus_synthesize, qsp_synthesize

    rng = np.random.default_rng(61)
    if kind == "qsp":
        g, m, n = path_graph(5), 2, 3
        target = StateSpec(n, _unit(rng, n))
        call = lambda: qsp_synthesize(g, target, m)
    elif kind == "gus":
        g, m, n = path_graph(3), 1, 2
        u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        target = UnitarySpec(n, u)
        call = lambda: gus_synthesize(g, target, m)
    else:
        g, m, n = path_graph(16), 12, 4
        call = lambda: synth_diag_auto(
            g, DiagonalSpec(n, rng.uniform(0, 2 * np.pi, 1 << n)), m)
    call()
    c, rep = call()
    assert rep["residual"] <= 1e-9 and rep["ancilla_restored"] is True
    assert c.template is not None and c.template.plan is not None
    if kind == "diag":
        target = DiagonalSpec(n, rng.uniform(0, 2 * np.pi, 1 << n))
    return c, g, target, m


def _unit(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def _tampered(c, kind):
    """A copy of c with one r angle perturbed, one r gate moved to the next
    qubit, one CNOT reversed or one gate dropped.  The moved r is the first
    whose angle is nonzero mod 2 pi: moving an identity changes nothing."""
    gates = list(c.gates)
    if kind == "angle":
        k = next(i for i, g in enumerate(gates) if g[0] == "r")
        name, qs, p = gates[k]
        gates[k] = (name, qs, p + 0.5)
    elif kind == "move":
        k = next(i for i, g in enumerate(gates) if g[0] == "r"
                 and abs(math.remainder(g[2], 2 * math.pi)) > 1e-9)
        name, (q,), p = gates[k]
        gates[k] = (name, (q % c.n + 1,), p)
    elif kind == "reverse":
        k = next(i for i, g in enumerate(gates) if g[0] == "cx")
        gates[k] = ("cx", gates[k][1][::-1], None)
    else:
        del gates[len(gates) // 2]
    bad = Circuit(c.n, c.ancilla, gates)
    bad.meta = dict(c.meta)
    return bad


@pytest.mark.parametrize("tamper", ["angle", "move", "reverse", "drop"])
@pytest.mark.parametrize("kind", ["qsp", "gus", "diag"])
def test_kept_plan_cannot_hide_a_wrong_circuit(kind, tamper, monkeypatch):
    c, g, target, m = _warm_keyed(kind)
    t = c.template
    kept = t.plan
    bad = _tampered(c, tamper)
    compiled, compile_plan = [], sim.Plan
    scanned, scan = [], circuit._scan
    with monkeypatch.context() as mp:
        mp.setattr(sim, "Plan", lambda c: compiled.append(c) or compile_plan(c))
        mp.setattr(circuit, "_scan", lambda c, *a: scanned.append(c) or scan(c, *a))
        rep = assemble_report(bad, g, target, m=m)
    assert (rep["residual"], rep["ancilla_restored"]) == verify_target(bad, target, m)
    # a plain circuit is bound from no template: it is scanned and planned
    # as itself, and the template's own plan is left alone
    assert compiled == scanned == [bad]
    assert t.plan is kept
    assert rep["residual"] > 1e-6 or not rep["ancilla_restored"]


@pytest.mark.parametrize("kind", ["qsp", "gus"])
def test_warm_keyed_verification_builds_no_trajectory(kind, monkeypatch):
    # a warm bound circuit compiles no plan, builds no trajectory and
    # scans nothing: all three are its template's
    c, g, target, m = _warm_keyed(kind)
    built, numpy_calls, trajectory = [], [], sim._Trajectory
    monkeypatch.setattr(sim, "_Trajectory", lambda *a: built.append(a) or trajectory(*a))
    monkeypatch.setattr(sim, "Plan", lambda *a: built.append(a))
    monkeypatch.setattr(circuit, "_scan", lambda *a: built.append(a))
    for name in ("unique", "bitwise_count"):
        def counted(*args, _fn=getattr(np, name), **kw):
            numpy_calls.append(_fn.__name__)
            return _fn(*args, **kw)
        monkeypatch.setattr(np, name, counted)
    rep = assemble_report(c, g, target, m=m)
    assert rep["residual"] <= 1e-9 and rep["ancilla_restored"] is True
    assert built == [] and numpy_calls == []
    assert c.template is not None  # nor were its gates built


@pytest.mark.parametrize("kind", ["qsp", "gus"])
def test_moved_branching_gate_is_replanned(kind, monkeypatch):
    # the kept trajectory follows the branching gates' qubits, so a circuit
    # with one moved gets a plan and a trajectory of its own
    c, g, target, m = _warm_keyed(kind)
    t = c.template
    kept = t.plan
    paths = dict(kept.paths)
    gates = list(c.gates)
    k = next(i for i, gate in enumerate(gates) if gate[0] in ("h", "ry"))
    name, (q,), p = gates[k]
    gates[k] = (name, (q % c.n + 1,), p)
    bad = Circuit(c.n, c.ancilla, gates)
    bad.meta = dict(c.meta)
    compiled, compile_plan = [], sim.Plan
    monkeypatch.setattr(sim, "Plan", lambda c: compiled.append(c) or compile_plan(c))
    rep = assemble_report(bad, g, target, m=m)
    assert compiled == [bad]
    assert kept.paths == paths and t.plan is kept
    assert (rep["residual"], rep["ancilla_restored"]) == verify_target(bad, target, m)
    assert rep["residual"] > 1e-6 or not rep["ancilla_restored"]


@given(circuits(), st.integers(0, 2**5 - 1))
@settings(max_examples=60, deadline=None)
def test_keyed_plan_agrees_with_reference(case, seed):
    # two circuits bound from one template: the first report compiles the
    # template's plan, the second reads new angles through it; both must
    # agree with the per-gate reference
    c, n, m = case
    rng = np.random.default_rng(seed)
    g = complete_graph(c.n)
    targets = [StateSpec(n, _unit(rng, n)),
               UnitarySpec(n, np.linalg.qr(rng.normal(size=(1 << n, 1 << n)))[0]),
               DiagonalSpec(n, rng.uniform(0, 2 * np.pi, 1 << n))]
    again = Circuit(c.n, c.ancilla, [
        (name, qs, float(rng.uniform(-np.pi, np.pi)) if p is not None else p)
        for name, qs, p in c.gates])
    t = bound_copy(c).template
    plans = set()
    for target in targets:
        for circ in (c, again):
            bound = t.bind(np.array([p for name, _, p in circ.gates
                                     if name in ("r", "rz", "ry")], dtype=float))
            rep = assemble_report(bound, g, target, m=m)
            _agree((rep["residual"], rep["ancilla_restored"]),
                   ref.verify_target(circ, target, m))
            plans.add(id(t.plan))
    assert len(plans) == 1


# -- verified sizes: exact checks at the sizes synthesis reaches -------------

@pytest.mark.parametrize("n, m", [(14, 0), (12, 192), (16, 0), (14, 192)])
def test_verified_diagonal_on_path(n, m):
    from qgsynth.diag_ancilla import synth_diag_auto

    rng = np.random.default_rng(40 + n)
    spec = DiagonalSpec(n, rng.uniform(0, 2 * np.pi, 1 << n))
    c, rep = synth_diag_auto(path_graph(n + m), spec, m, verify=True)
    assert type(rep["residual"]) is float and rep["residual"] <= 1e-9
    assert rep["ancilla_restored"] is True


def test_verified_qsp_on_star_12():
    from qgsynth.graphs import star_graph
    from qgsynth.states import qsp_synthesize

    rng = np.random.default_rng(41)
    n = 12
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    v /= np.linalg.norm(v)
    c, rep = qsp_synthesize(star_graph(n), StateSpec(n, v), 0, verify=True)
    assert type(rep["residual"]) is float and rep["residual"] <= 1e-9
    assert rep["ancilla_restored"] is True


def test_sparse_index_width():
    c = Circuit(64)
    c.add("x", (1,))
    c.add("h", (64,))
    state = sparse_run(c)
    assert sorted(state) == [1 << 63, (1 << 63) | 1]
    assert all(abs(a - 2 ** -0.5) < 1e-15 for a in state.values())
    with pytest.raises(sim.TooLarge):
        sparse_run(Circuit(65))


def test_keyed_verified_report_rescans_a_circuit_that_is_not_the_keys():
    # a warm diagonal whose last gate became an off-graph CNOT: a plain
    # circuit, so neither its scan nor its plan is the template's, verified
    # or not
    from qgsynth.diag_ancilla import synth_diag_auto

    g, n, m = path_graph(16), 4, 12
    rng = np.random.default_rng(67)
    spec = DiagonalSpec(n, rng.uniform(0, 2 * np.pi, 1 << n))
    synth_diag_auto(g, spec, m)
    c, _ = synth_diag_auto(g, spec, m)
    bad = Circuit(c.n, c.ancilla, c.gates[:-1] + [("cx", (1, 16), None)])
    bad.meta = dict(c.meta)
    for target in (None, spec):
        rep = assemble_report(bad, g, target, m=m)
        assert {"g": "cx", "q": [1, 16]} in rep["violations"]
        assert rep["depth"] == bad.metrics()[0]
    assert rep["residual"] > 1e-6 or not rep["ancilla_restored"]
    assert assemble_report(c, g, spec, m=m)["violations"] == []


def test_diagonal_check_keeps_its_term_indices_on_the_plan():
    from qgsynth.diag_ancilla import synth_diag_auto

    g, n, m = path_graph(16), 4, 12
    rng = np.random.default_rng(68)
    for _ in range(3):
        spec = DiagonalSpec(n, rng.uniform(0, 2 * np.pi, 1 << n))
        c, rep = synth_diag_auto(g, spec, m)
        assert rep["residual"] <= 1e-9
        plan = c.template.plan
        kept = plan.projected[m]
        assert verify_target(c, spec, m) == (rep["residual"], True)
        assert c.template.plan is plan
        assert plan.projected[m] is kept and list(plan.projected) == [m]
        assert np.array_equal(kept, [s >> m for s in plan.runs[0].terms])


def test_report_on_a_ucg_beyond_the_matrix_cap_is_not_simulated():
    # a 13-qubit UCG would need two dense 2^13 x 2^13 matrices (2 GB):
    # verify_target refuses before simulating, and the report says so
    n = sim.UNITARY_QUBIT_CAP + 1
    spec = UcgSpec(n, np.tile(np.eye(2, dtype=complex), (1 << (n - 1), 1, 1)))
    with pytest.raises(sim.TooLarge):
        verify_target(Circuit(n), spec)
    rep = assemble_report(Circuit(n), path_graph(n), target=spec)
    assert rep["residual"] == "not simulated"
    assert rep["ancilla_restored"] is None
