"""State preparation, uniformly controlled gates and full-unitary
synthesis."""
import dataclasses

import numpy as np
import pytest

from conftest import distance_up_to_phase
from qgsynth.circuit import gate_matrix
from qgsynth.diag import DiagonalSpec
from qgsynth.graphs import (
    complete_graph,
    expander_cascade,
    grid_graph,
    path_graph,
    star_graph,
    tree_graph,
)
from qgsynth.sim import ucg_matrix, verify_target
from qgsynth.states import (
    DecompositionFailure,
    StateSpec,
    UcgSpec,
    UnitarySpec,
    _last_target_branches,
    gus_synthesize,
    qsp_synthesize,
    state_to_ucgs,
    synth_ucg,
    unitary_to_ucgs,
    zyz_angles_batch,
)


def random_su2(rng):
    a = rng.normal(size=4)
    a /= np.linalg.norm(a)
    return np.array(
        [[a[0] + 1j * a[1], a[2] + 1j * a[3]],
         [-a[2] + 1j * a[3], a[0] - 1j * a[1]]]
    )


def random_ucg(rng, n, target=None):
    return UcgSpec(n, [random_su2(rng) for _ in range(1 << (n - 1))],
                   target or n)


def test_ucg_spec_rejects_bad_branches():
    rng = np.random.default_rng(40)
    good = [random_su2(rng) for _ in range(4)]
    with pytest.raises(ValueError, match="expected 4 branches, got 3"):
        UcgSpec(3, good[:3])
    with pytest.raises(ValueError, match="branches must be 2x2"):
        UcgSpec(3, good[:3] + [np.eye(3)])
    with pytest.raises(ValueError, match="branches must be 2x2"):
        UcgSpec(3, np.zeros((4, 3, 3)))
    for k in range(4):
        bad = list(good)
        bad[k] = 1.5 * bad[k]
        bad[3] = 2.0 * bad[3]  # only the first non-unitary branch is named
        with pytest.raises(ValueError, match=f"^branch {k} is not unitary$"):
            UcgSpec(3, bad)
        bad[k] = np.array([[np.nan, 0.0], [0.0, 1.0]])  # NaN fails every bound
        with pytest.raises(ValueError, match=f"^branch {k} is not unitary$"):
            UcgSpec(3, bad)


def test_ucg_spec_list_and_array_agree():
    rng = np.random.default_rng(39)
    branches = [random_su2(rng) for _ in range(4)]
    V, W = UcgSpec(3, branches), UcgSpec(3, np.array(branches))
    assert V == W and V.branches.shape == (4, 2, 2)
    assert V != UcgSpec(3, branches[::-1]) and V != UcgSpec(3, branches, 2)
    assert np.array_equal(ucg_matrix(V), ucg_matrix(W))
    # target 3: control word z acts on the basis pair 2z, 2z + 1
    assert np.array_equal(ucg_matrix(V)[2:4, 2:4], branches[1])


def test_zyz_reconstruction():
    rng = np.random.default_rng(41)
    us = [random_su2(rng) * np.exp(1j * rng.uniform(0, 2 * np.pi))
          for _ in range(20)]
    for u, a, b, c, d in zip(us, *zyz_angles_batch(np.array(us))):
        rebuilt = (np.exp(1j * a)
                   * gate_matrix("rz", b) @ gate_matrix("ry", c)
                   @ gate_matrix("rz", d))
        assert np.max(np.abs(rebuilt - u)) < 1e-12


def test_ucg_reconstruction_any_target():
    rng = np.random.default_rng(42)
    for target in (1, 2, 3):
        V = random_ucg(rng, 3, target)
        c, _ = synth_ucg(complete_graph(3), V, 0, verify=False)
        res, ok = verify_target(c, V, m=0)
        assert res <= 1e-10 and ok


def test_retarget_last_preserves_matrix():
    rng = np.random.default_rng(43)
    V = random_ucg(rng, 3, 1)
    W = UcgSpec(V.n, _last_target_branches(V.branches, V.n, V.target))
    assert W.target == W.n
    # same operator after relabeling qubit 1 <-> qubit 3
    u = ucg_matrix(V)
    w = ucg_matrix(W)
    perm = [((b >> 2) & 1) | (b & 2) | ((b & 1) << 2) for b in range(8)]
    assert np.max(np.abs(w - u[np.ix_(perm, perm)])) < 1e-12


def test_ucg_with_ancilla_on_tree():
    rng = np.random.default_rng(44)
    V = random_ucg(rng, 3)
    g = tree_graph(2, n=9)
    c, _ = synth_ucg(g, V, 6, verify=False)
    res, ok = verify_target(c, V, m=6)
    assert res <= 1e-10 and ok


def test_state_cascade_is_exact():
    rng = np.random.default_rng(45)
    for n in (1, 2, 3, 4):
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        v /= np.linalg.norm(v)
        ucgs = state_to_ucgs(v)
        assert len(ucgs) == n
        out = np.zeros(1 << n, dtype=complex)
        out[0] = 1.0
        for V in ucgs:  # list order = application order
            full = np.kron(ucg_matrix(V), np.eye(1 << (n - V.n)))
            out = full @ out
        assert distance_up_to_phase(out, v) < 1e-10


def test_state_cascade_handles_zero_branches():
    v = np.zeros(8, dtype=complex)
    v[0] = 1 / np.sqrt(2)
    v[5] = 1j / np.sqrt(2)
    ucgs = state_to_ucgs(v)
    out = np.zeros(8, dtype=complex)
    out[0] = 1.0
    for V in ucgs:
        full = np.kron(ucg_matrix(V), np.eye(1 << (3 - V.n)))
        out = full @ out
    assert distance_up_to_phase(out, v) < 1e-12


@pytest.mark.parametrize(
    "make_g",
    [
        lambda k: path_graph(k),
        lambda k: star_graph(k),
        lambda k: tree_graph(2, n=k),
        lambda k: complete_graph(k),
    ],
)
def test_qsp_families_exact(make_g):
    rng = np.random.default_rng(46)
    for n in (2, 3, 4):
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        v /= np.linalg.norm(v)
        g = make_g(n)
        c, report = qsp_synthesize(g, StateSpec(n, v), m=0)
        assert report["violations"] == []
        res, ok = verify_target(c, StateSpec(n, v), m=0)
        assert res <= 1e-9 and ok


def test_qsp_grid_with_ancilla():
    rng = np.random.default_rng(47)
    n = 4
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    v /= np.linalg.norm(v)
    g = grid_graph([3, 3])
    c, report = qsp_synthesize(g, StateSpec(n, v), m=5)
    assert report["violations"] == []
    res, ok = verify_target(c, StateSpec(n, v), m=5)
    assert res <= 1e-9 and ok


def test_qsp_on_binary_trees_exact():
    rng = np.random.default_rng(49)
    n = 3
    for m in (0, 4, 15):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        c, _ = qsp_synthesize(tree_graph(2, n=n + m), StateSpec(n, v), m,
                              verify=False)
        res, ok = verify_target(c, StateSpec(n, v), m=c.n - n)
        assert res <= 1e-9 and ok


def test_unitary_demux_ucg_count_and_exactness():
    rng = np.random.default_rng(50)
    for n in (1, 2, 3):
        z = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(
            size=(1 << n, 1 << n))
        q, _ = np.linalg.qr(z)
        ucgs = unitary_to_ucgs(UnitarySpec(n, q))
        assert len(ucgs) == (1 << n) - 1
        u = np.eye(1 << n, dtype=complex)
        for V in ucgs:  # list order = application order
            u = ucg_matrix(V) @ u
        ph = u[0, 0] / q[0, 0] if abs(q[0, 0]) > 1e-9 else None
        if ph is None:
            r, s = np.unravel_index(np.argmax(np.abs(q)), q.shape)
            ph = u[r, s] / q[r, s]
        ph /= abs(ph)
        assert np.max(np.abs(u - ph * q)) < 1e-9


def test_gus_on_path_is_exact():
    rng = np.random.default_rng(51)
    n = 3
    z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    q, _ = np.linalg.qr(z)
    g = path_graph(3)
    c, report = gus_synthesize(g, UnitarySpec(n, q), m=0)
    assert report["violations"] == []
    assert report["ucg_count"] == 7
    res, ok = verify_target(c, UnitarySpec(n, q), m=0)
    assert res <= 1e-7 and ok


def test_gus_verify_switch(monkeypatch):
    from qgsynth import sim
    from qgsynth.circuit import circuit_to_json

    rng = np.random.default_rng(53)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    g = path_graph(3)
    c, report = gus_synthesize(g, UnitarySpec(2, q), 1)
    assert report["residual"] <= 1e-9 and report["ancilla_restored"] is True

    def no_verify(*args, **kwargs):
        raise AssertionError("verify=False must not verify")

    monkeypatch.setattr(sim, "verify_target", no_verify)
    c2, report2 = gus_synthesize(g, UnitarySpec(2, q), 1, verify=False)
    assert report2["residual"] is None and report2["ancilla_restored"] is None
    assert circuit_to_json(c2) == circuit_to_json(c)
    assert report2["ucg_count"] == report["ucg_count"] == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_state_spec_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="^amplitudes must be finite$"):
        StateSpec(2, [bad, 0, 0, 0])
    with pytest.raises(ValueError, match="^amplitudes must be finite$"):
        qsp_synthesize(path_graph(2), np.array([bad, 0, 0, 0]), 0)


@pytest.mark.filterwarnings("ignore:invalid value encountered in divide")
@pytest.mark.parametrize("n", [2, 3])
def test_qsp_refuses_an_infinite_amplitude_set_after_the_checks(n):
    # stage 1's pair is then (1, inf) / inf = (0, NaN); stage n's first
    # pair that holds NaN is its last, so "branch 0" names stage 1's.  The
    # spec's own array is read-only: the bad set is swapped in past it
    v = StateSpec(n, np.eye(1 << n)[0])
    object.__setattr__(v, "amplitudes", np.append(v.amplitudes[:-1], np.inf))
    with pytest.raises(ValueError, match="^branch 0 is not unitary$"):
        qsp_synthesize(path_graph(n), v, 0)


def test_gus_rejects_non_unitary_and_large_n():
    with pytest.raises(DecompositionFailure):
        UnitarySpec(2, np.ones((4, 4)))
    rng = np.random.default_rng(52)
    z = rng.normal(size=(64, 64))
    q, _ = np.linalg.qr(z)
    with pytest.raises(ValueError):
        gus_synthesize(complete_graph(6), UnitarySpec(6, q), m=0)


def test_each_entry_point_builds_one_report(monkeypatch):
    # synthesis below the public entry points is pure: the diagonals of a
    # UCG cascade and the auto dispatch's fallbacks build no report
    import qgsynth.diag as diag
    import qgsynth.diag_ancilla as diag_ancilla
    import qgsynth.states as states

    calls = []
    real = diag.assemble_report

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for mod in (diag, diag_ancilla, states):
        if hasattr(mod, "assemble_report"):  # patch it where it is imported
            monkeypatch.setattr(mod, "assemble_report", counting)
    rng = np.random.default_rng(5)

    def diag_spec(n):
        return DiagonalSpec(n, rng.uniform(0, 2 * np.pi, 1 << n))

    def state(n):
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        return StateSpec(n, v / np.linalg.norm(v))

    runs = [
        lambda: diag_ancilla.synth_diag_auto(path_graph(16), diag_spec(4), 12),
        lambda: diag_ancilla.synth_diag_auto(grid_graph([3, 3]), diag_spec(4), 5),
        lambda: diag_ancilla.synth_diag_auto(complete_graph(8), diag_spec(3), 5),
        lambda: diag_ancilla.synth_diag_ancilla(path_graph(16), diag_spec(4), 12),
        lambda: diag.synth_diag_noancilla(star_graph(4), diag_spec(4)),
        lambda: qsp_synthesize(star_graph(4), state(4), 0),
        lambda: qsp_synthesize(path_graph(6), state(3), 3),
        lambda: gus_synthesize(path_graph(3), UnitarySpec(
            2, np.linalg.qr(rng.normal(size=(4, 4)))[0]), 1),
        lambda: synth_ucg(path_graph(4), random_ucg(rng, 2), 1),
        lambda: diag_ancilla.synth_diag_expander_ancilla(
            complete_graph(6), diag_spec(3), expander_cascade(complete_graph(6), 1, 2)),
    ]
    for run in runs:
        calls.clear()
        circuit, report = run()
        assert calls == [circuit]
        assert report["residual"] <= 1e-8 and report["ancilla_restored"]


def _two_qubit_unitary(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return UnitarySpec(2, np.linalg.qr(z)[0])


@pytest.mark.parametrize("run", [
    lambda: gus_synthesize(path_graph(5), _two_qubit_unitary(60), 1),
    lambda: synth_ucg(path_graph(4), random_ucg(np.random.default_rng(61), 2), 1),
], ids=["gus", "ucg"])
def test_cascades_verify_on_a_graph_larger_than_n_plus_m(run):
    # the qubits past n + m are idle ancilla: the report counts every qubit
    # past n as one instead of refusing a size mismatch
    c, report = run()
    assert c.n > 2 + 1
    assert report["residual"] <= 1e-8 and report["ancilla_restored"]


def test_specs_keep_read_only_copies():
    rng = np.random.default_rng(62)
    amp = np.eye(4)[0].astype(complex)
    mat = _two_qubit_unitary(63).matrix.copy()
    theta = rng.uniform(0, 1, 4)
    branches = np.array([random_su2(rng) for _ in range(2)])
    specs = [(StateSpec(2, amp), "amplitudes", amp),
             (UnitarySpec(2, mat), "matrix", mat),
             (DiagonalSpec(2, theta), "theta", theta),
             (UcgSpec(2, branches), "branches", branches)]
    for spec, name, source in specs:
        held = getattr(spec, name)
        before = held.copy()
        with pytest.raises(ValueError, match="read-only"):
            held.flat[0] = np.nan
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, source)
        source.flat[0] = np.nan  # the caller's array is not the spec's
        assert np.array_equal(held, before)
    # the write that used to hand QSP a NaN state, compiled without error
    v = StateSpec(2, np.eye(4)[1])
    with pytest.raises(ValueError, match="read-only"):
        v.amplitudes[0] = np.nan
    c, report = qsp_synthesize(path_graph(2), v, 0)
    assert c.gates and report["residual"] <= 1e-8
