"""The CNOT cancellation pass of `Template.seal` and the owned-slot sweep of
the routed no-ancilla splits.

A sealed template drops only CNOT pairs that cancel, never across a stage
mark, and keeps every slot.  Every template a builder seals holds no pair
that the quadratic reference scan (reference_cancel.py) can still cancel.
The pass runs where a template is sealed, so a diagonal's template does
not depend on which entry point built it first."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_report
import reference_sim as ref
from conftest import random_state, random_unitary
from reference_cancel import cancellable_pairs
from qgsynth import circuit
from qgsynth.circuit import Circuit, Template, circuit_to_json
from qgsynth.diag import DiagonalSpec, _dispatch
from qgsynth.diag_ancilla import (
    _ancilla_pipeline,
    _auto_template,
    _expander_template,
    synth_diag_auto,
)
from qgsynth.graphs import (
    complete_graph,
    expander_cascade,
    explicit_graph,
    grid_graph,
    path_graph,
    star_graph,
    tree_graph,
)
from qgsynth.gray import solve_phase_coefficients
from qgsynth.sim import assemble_report
from qgsynth.states import gus_synthesize, qsp_synthesize

ONE_QUBIT = ["r", "rz", "ry", "h", "x"]


@st.composite
def gate_lists(draw):
    """(n, gates, ends): r, rz, ry, h, x, cx and swaps (as three CNOTs) on
    2..4 qubits, most of them CNOTs on few pairs so that pairs form, and
    stage ends."""
    n = draw(st.integers(2, 4))
    qubit = st.integers(1, n)
    pair = st.tuples(qubit, qubit).filter(lambda p: p[0] != p[1])
    runs = draw(st.lists(st.one_of(
        pair.map(lambda p: [("cx", p)]),
        pair.map(lambda p: [("cx", p)]),
        pair.map(lambda p: [("cx", p), ("cx", p[::-1]), ("cx", p)]),
        st.tuples(st.sampled_from(ONE_QUBIT), qubit.map(lambda q: (q,))).map(
            lambda gate: [gate]),
    ), max_size=40))
    gates = [gate for run in runs for gate in run]
    ends = sorted(draw(st.lists(st.integers(0, len(gates)), max_size=3)))
    return n, gates, ends


def _template(n, gates, ends, angles):
    """The unsealed template of `gates` (r, rz and ry as slots, slot k
    reading angles[k]) marked at `ends`, and the plain circuit it binds to."""
    t, plain = Template(n, None), Circuit(n)
    slots = 0
    for i, (name, qs) in enumerate(gates):
        for _ in range(ends.count(i)):
            t.mark(f"s{i}")
            plain.mark(f"s{i}")
        if name in ("r", "rz", "ry"):
            t.rot(qs[0], slots, name)
            plain.add(name, qs, angles[slots])
            slots += 1
        else:
            t.gates.append((name, qs, None))
            plain.add(name, qs)
    for _ in range(ends.count(len(gates))):
        t.mark("last")
        plain.mark("last")
    return t, plain


def _unitary(c):
    return np.stack([ref.dense_state(c, b) for b in range(1 << c.n)], axis=1)


def _stages(c):
    """c's stages as plain circuits."""
    ends = [end for _, end in c.meta.get("marks", ())] + [len(c.gates)]
    return [Circuit(c.n, 0, c.gates[a:b]) for a, b in zip([0] + ends, ends)]


@given(case=gate_lists(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_pass_keeps_each_stage_and_every_slot(case, seed):
    n, gates, ends = case
    angles = np.random.default_rng(seed).uniform(-np.pi, np.pi, len(gates))
    t, plain = _template(n, gates, ends, angles)
    c = t.seal().bind(angles)
    # only CNOTs go, and the rest stays in order, slots included
    kept = iter(plain.gates)
    assert all(any(g == h for h in kept) for g in c.gates)
    assert ([g for g in c.gates if g[0] != "cx"]
            == [g for g in plain.gates if g[0] != "cx"])
    assert [t.gates[p][:2] for p in t.pos] == [
        g[:2] for g in plain.gates if g[0] in ("r", "rz", "ry")]
    assert t.idx.tolist() == list(range(len(t.pos)))
    # each stage keeps its unitary, so no pair spans a mark
    assert [name for name, _ in c.meta.get("marks", ())] == [
        name for name, _ in plain.meta.get("marks", ())]
    for got, want in zip(_stages(c), _stages(plain)):
        assert np.max(np.abs(_unitary(got) - _unitary(want)), initial=0) < 1e-12
    # no deeper, and the stage rows still sum to the totals
    assert reference_report.metrics(c)[0] <= reference_report.metrics(plain)[0]
    report = assemble_report(c, complete_graph(n))
    assert report["depth"] == reference_report.metrics(c)[0]
    assert ("stages" in report) == bool(ends)
    for col in ("depth", "size", "two_qubit"):
        assert sum(row[col] for row in report.get("stages", ())) == (
            report[col] if ends else 0)
    assert cancellable_pairs(c) == []


def test_pass_drops_a_pair_across_commuting_gates():
    # cx(1,2) rz(1) cx(1,3) x(2) cx(4,2) cx(1,2): all between commute
    t, _ = _template(4, [("cx", (1, 2)), ("rz", (1,)), ("cx", (1, 3)),
                         ("x", (2,)), ("cx", (4, 2)), ("cx", (1, 2))], [], [0.3])
    assert [g[:2] for g in t.seal().gates] == [
        ("rz", (1,)), ("cx", (1, 3)), ("x", (2,)), ("cx", (4, 2))]


def test_pass_uncovers_a_pair_once_its_blocker_cancels():
    # the inner cx(3,2) pair goes first; cx(4,3) then cancels, and the
    # outer cx(3,2) pair it blocked is found
    gates = [("cx", (3, 2)), ("cx", (4, 3)), ("cx", (3, 2)), ("cx", (3, 2)),
             ("cx", (4, 3)), ("cx", (3, 2))]
    t, _ = _template(4, gates, [], [])
    assert t.seal().gates == []


@pytest.mark.parametrize("gates", [
    [("cx", (1, 2)), ("h", (1,)), ("cx", (1, 2))],
    [("cx", (1, 2)), ("r", (2,)), ("cx", (1, 2))],
    [("cx", (1, 2)), ("x", (1,)), ("cx", (1, 2))],
    [("cx", (1, 2)), ("cx", (2, 3)), ("cx", (1, 2))],
    [("cx", (1, 2)), ("cx", (3, 1)), ("cx", (1, 2))],
    [("cx", (1, 2)), ("cx", (2, 3)), ("cx", (3, 2)), ("cx", (2, 3)),
     ("cx", (1, 2))],
])
def test_pass_keeps_a_pair_a_gate_blocks(gates):
    t, _ = _template(3, gates, [], [0.5])
    assert len(t.seal().gates) == len(gates)


def test_pass_keeps_a_pair_across_a_mark():
    t, _ = _template(2, [("cx", (1, 2)), ("cx", (1, 2))], [1], [])
    assert len(t.seal().gates) == 2


def _spec(n, seed):
    return DiagonalSpec(n, np.random.default_rng(seed).uniform(0, 2 * np.pi, 1 << n))


def _cycle(n):
    return explicit_graph(n, [(v, v % n + 1) for v in range(1, n + 1)])


# every sealed template a builder makes, on small instances
TEMPLATES = {
    "path": lambda: _dispatch(grid_graph([1, 8]), "grid"),  # the path split
    "path-general": lambda: _dispatch(path_graph(8), "general"),
    "path-expander": lambda: _dispatch(path_graph(8), "expander"),
    "grid": lambda: _dispatch(grid_graph([3, 3]), "grid"),
    "tree2": lambda: _dispatch(tree_graph(2, n=15), "tree"),
    "tree3-walk": lambda: _dispatch(tree_graph(3, n=13), "tree"),
    "star-walk": lambda: _dispatch(star_graph(7), "star"),
    "complete": lambda: _dispatch(complete_graph(6), "complete"),
    "cycle-general": lambda: _dispatch(_cycle(8), "general"),
    "cycle-expander": lambda: _dispatch(_cycle(8), "expander"),
    "auto-path": lambda: _auto_template(path_graph(40), 8, 32),
    "auto-tree": lambda: _auto_template(tree_graph(2, n=72), 10, 62),
    "auto-grid": lambda: _auto_template(grid_graph([3, 3]), 6, 3),
    "ancilla-path": lambda: _ancilla_pipeline(path_graph(40), 6, 34),
    "ancilla-grid": lambda: _ancilla_pipeline(grid_graph([8, 10]), 2, 78),
    "ancilla-tree": lambda: _ancilla_pipeline(tree_graph(2, n=31), 4, 27),
    "ancilla-tree-line": lambda: _ancilla_pipeline(tree_graph(2, n=12), 3, 9),
    "ancilla-expander": lambda: _expander_template(
        complete_graph(8), 3, expander_cascade(complete_graph(8), 2, 4)),
    "qsp-path": lambda: qsp_synthesize(
        path_graph(7), random_state(np.random.default_rng(1), 6), 1,
        verify=False)[0].template,
    "qsp-star": lambda: qsp_synthesize(
        star_graph(6), random_state(np.random.default_rng(2), 6), 0,
        verify=False)[0].template,
    "qsp-relabelled": lambda: qsp_synthesize(
        explicit_graph(6, [(1, 3), (3, 2), (2, 4), (4, 5), (5, 6)]),
        random_state(np.random.default_rng(3), 5), 1, verify=False)[0].template,
    "gus-path": lambda: gus_synthesize(
        path_graph(4), random_unitary(np.random.default_rng(4), 8), 1,
        verify=False)[0].template,
    "gus-complete": lambda: gus_synthesize(
        complete_graph(3), random_unitary(np.random.default_rng(5), 8), 0,
        verify=False)[0].template,
}


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_sealed_template_holds_no_cancellable_pair(name):
    t = TEMPLATES[name]()
    assert any(g[0] == "cx" for g in t.gates)
    assert cancellable_pairs(t) == []


def test_auto_does_not_depend_on_what_ran_first():
    # a QSP cascade on path(8) builds ("auto", 4, 4) for its fourth UCG
    spec = _spec(4, 6)
    fresh = synth_diag_auto(path_graph(8), spec, 4)
    g = path_graph(8)
    qsp_synthesize(g, random_state(np.random.default_rng(7), 6), 2, verify=False)
    after = synth_diag_auto(g, spec, 4)
    assert json.dumps(circuit_to_json(after[0])) == json.dumps(
        circuit_to_json(fresh[0]))
    assert {k: v for k, v in after[1].items() if k != "residual"} == {
        k: v for k, v in fresh[1].items() if k != "residual"}


# the path split on the chain grids 1 x n, paths in shape, then on the
# Hamiltonian chains of 2-row grids, then the tree2 split
SPLITS = [(grid_graph([1, n]), "grid") for n in range(2, 9)] + [
    (grid_graph([2, 2]), "grid"), (grid_graph([2, 3]), "grid"),
    (grid_graph([2, 4]), "grid"), (tree_graph(2, n=7), "tree2"),
    (tree_graph(2, n=8), "tree2")]


def _split_id(g, backend):
    chain = g.params.get("dims", [0])[0] == 1
    return f"{'path' if chain else backend}{g.n}"


@pytest.mark.parametrize("g, backend", SPLITS,
                         ids=[_split_id(g, b) for g, b in SPLITS])
@pytest.mark.parametrize("cancel", [True, False], ids=["pass", "no-pass"])
def test_owned_slot_sweep_is_exact(g, backend, cancel, monkeypatch):
    # the routed splits sweep only the owned slots of each cover set; with
    # and without the pass the diagonal is exact by the reference simulator
    if not cancel:
        monkeypatch.setattr(circuit, "_cancelled", lambda *args: None)
    spec = _spec(g.n, g.n)
    t = _dispatch(g, "tree" if backend == "tree2" else backend)
    assert t.backend == backend
    c = t.bind(solve_phase_coefficients(spec.theta))
    assert assemble_report(c, g)["violations"] == []
    res, restored = ref.verify_target(c, spec, 0)
    assert res < 1e-9 and restored
