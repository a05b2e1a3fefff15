import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_report as ref
from qgsynth.circuit import (
    Circuit,
    ParseError,
    _scan,
    circuit_from_json,
    circuit_to_json,
    gate_matrix,
    validate_connectivity,
)
from qgsynth.diag import DiagonalSpec
from qgsynth.diag_ancilla import synth_diag_auto
from qgsynth.graphs import explicit_graph, path_graph
from qgsynth.sim import assemble_report


def small_random_circuit(rng, n, length):
    c = Circuit(n)
    for _ in range(length):
        k = rng.integers(0, 4)
        if k == 0:
            c.add("ry", (int(rng.integers(1, n + 1)),), float(rng.normal()))
        elif k == 1:
            c.add("r", (int(rng.integers(1, n + 1)),), float(rng.normal()))
        elif k == 2:
            c.add("h", (int(rng.integers(1, n + 1)),))
        else:
            u, v = rng.choice(range(1, n + 1), size=2, replace=False)
            c.cx(int(u), int(v))
    return c


def test_metrics_counts_swap_as_three():
    c = Circuit(2)
    c.swap(1, 2)
    depth, size, twoq = c.metrics()
    assert (depth, size, twoq) == (3, 3, 3)


def test_metrics_parallel_layers():
    c = Circuit(4)
    c.cx(1, 2)
    c.cx(3, 4)
    c.cx(2, 3)
    assert c.metrics()[0] == 2


def test_validate_connectivity_flags_offgraph():
    g = path_graph(3)
    c = Circuit(3)
    c.cx(1, 2)
    c.cx(1, 3)
    bad = validate_connectivity(c, g)
    assert len(bad) == 1 and bad[0][1] == (1, 3)


def test_json_round_trip(rng):
    c = small_random_circuit(rng, 4, 20)
    c2 = circuit_from_json(circuit_to_json(c))
    assert c2.gates == c.gates and c2.n == c.n


@pytest.mark.parametrize("enabled", [True, False])
def test_json_writer_restores_the_collector(rng, enabled):
    # the writer pauses the cyclic collector and leaves it as it found it,
    # after a circuit and after refusing a u2 gate
    c = small_random_circuit(rng, 3, 10)
    bad = Circuit(1)
    bad.add("u2", (1,), np.eye(2))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert circuit_from_json(circuit_to_json(c)).gates == c.gates
        assert gc.isenabled() is enabled
        with pytest.raises(ParseError, match="u2"):
            circuit_to_json(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_json_rejects_garbage():
    with pytest.raises(ParseError):
        circuit_from_json({"n": 2, "gates": [{"g": "zz", "q": [1, 2]}]})


def test_json_ancilla_header_lies_in_0_to_n():
    for anc in (-3, 3, 7):
        with pytest.raises(ParseError, match="ancilla"):
            circuit_from_json({"n": 2, "ancilla": anc, "gates": []})
    for anc in (0, 2):
        assert circuit_from_json({"n": 2, "ancilla": anc}).ancilla == anc


@given(st.floats(-6, 6))
@settings(max_examples=30, deadline=None)
def test_rotation_matrices_are_unitary(angle):
    for name in ("r", "rz", "ry"):
        m = gate_matrix(name, angle)
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12


# -- the fused report scan against the two reference loops -----------------

_ONE_QUBIT = ["r", "rz", "ry", "h", "s", "sdg", "x", "u2"]


@st.composite
def circuits_on_graphs(draw):
    """(circuit, graph): a random connected graph on up to 8 vertices (a
    random spanning tree plus extra edges) and gates from every kind, with
    2-qubit pairs drawn both from its edges and from anywhere."""
    n = draw(st.integers(1, 8))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    if n > 1:
        for _ in range(draw(st.integers(0, n))):
            a = draw(st.integers(1, n - 1))
            edges.add((a, draw(st.integers(a + 1, n))))
    g = explicit_graph(n, sorted(edges))
    on_graph = sorted(g._pairs)
    c = Circuit(n)
    for _ in range(draw(st.integers(0, 40))):
        name = draw(st.sampled_from(_ONE_QUBIT + (["cx", "swap"] if n > 1 else [])))
        if name in ("cx", "swap"):
            if draw(st.booleans()):
                pair = draw(st.sampled_from(on_graph))
            else:
                a = draw(st.integers(1, n))
                b = draw(st.integers(1, n - 1))
                pair = (a, b if b < a else b + 1)
            c.add(name, pair)
        else:
            q = draw(st.integers(1, n))
            p = {"r": 0.3, "rz": -0.7, "ry": 1.1, "u2": np.eye(2)}.get(name)
            c.add(name, (q,), p)
    return c, g


@given(circuits_on_graphs())
@settings(max_examples=200, deadline=None)
def test_scan_matches_reference_loops(case):
    c, g = case
    want = ref.metrics(c)
    bad = ref.validate_connectivity(c, g)
    assert _scan(c, g._pairs)[:4] == (*want, bad)
    assert _scan(c)[:4] == (*want, [])
    assert c.metrics() == want
    assert validate_connectivity(c, g) == bad


@given(circuits_on_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_stage_rows_match_reference_slices(case, data):
    # each row adds its slice's size and CNOTs and the growth of the
    # prefix depth; gates after the last mark form a row named None
    c, g = case
    ends = sorted(data.draw(st.lists(st.integers(0, len(c.gates)),
                                     min_size=1, max_size=6)))
    marked = Circuit(c.n)
    for k, end in enumerate(ends):
        marked.gates.extend(c.gates[len(marked.gates):end])
        marked.mark(f"s{k}")
    marked.gates.extend(c.gates[len(marked.gates):])
    names = [f"s{k}" for k in range(len(ends))]
    if ends[-1] < len(c.gates):
        ends.append(len(c.gates))
        names.append(None)

    depth, size, twoq, bad, rows = _scan(marked, g._pairs)
    assert (depth, size, twoq) == ref.metrics(c)
    assert bad == ref.validate_connectivity(c, g)
    assert [r["stage"] for r in rows] == names
    start = 0
    for row, end in zip(rows, ends):
        piece, prefix, before = (Circuit(c.n, gates=gs) for gs in (
            c.gates[start:end], c.gates[:end], c.gates[:start]))
        assert (row["size"], row["two_qubit"]) == ref.metrics(piece)[1:]
        assert row["depth"] == ref.metrics(prefix)[0] - ref.metrics(before)[0]
        start = end
    for col, total in (("depth", depth), ("size", size), ("two_qubit", twoq)):
        assert sum(r[col] for r in rows) == total


def test_report_lists_the_one_offgraph_cnot():
    g = path_graph(5)
    rng = np.random.default_rng(41)
    c, rep = synth_diag_auto(g, DiagonalSpec(5, rng.uniform(0, 6, 32)), 0,
                             verify=False)
    assert rep["violations"] == []
    c.cx(1, 4)
    c.swap(4, 5)
    rep = assemble_report(c, g)
    assert rep["violations"] == [{"g": "cx", "q": [1, 4]}]
    assert (rep["depth"], rep["size"], rep["two_qubit"]) == ref.metrics(c)
