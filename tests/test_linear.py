import pytest

from qgsynth.circuit import Circuit
from qgsynth.graphs import grid_graph, path_graph, shortest_path
from qgsynth.linear import cnot_along, ladder, route_cnot_gates, synth_permutation
from qgsynth.sim import sparse_run
from reference_linear import fanout
from reference_sim import f2_matrix


def as_circuit(n, gates):
    c = Circuit(n)
    c.gates.extend(gates)
    return c


def classical_out(c, basis):
    state = sparse_run(c, basis)
    (only,) = [b for b, a in state.items() if abs(a) > 1e-12]
    return only


def test_routed_cnot_is_exact_cnot():
    g = path_graph(6)
    c = as_circuit(6, route_cnot_gates(g, 1, 6))
    n = 6
    # brute force over all basis states on 6 qubits
    for b in range(1 << n):
        out = classical_out(c, b)
        want = b ^ ((b >> (n - 1)) & 1)  # control qubit 1 -> target qubit 6
        assert out == want


def test_routed_cnot_gate_budget():
    for dist in range(1, 6):
        g = path_graph(dist + 1)
        gates = route_cnot_gates(g, 1, dist + 1)
        assert len(gates) <= 4 * dist


def test_route_cache_returns_one_tuple_per_pair():
    g = grid_graph([3, 3])
    for u, v in [(1, 9), (9, 1), (2, 3), (5, 7)]:
        first = route_cnot_gates(g, u, v)
        assert type(first) is tuple
        assert route_cnot_gates(g, u, v) is first
        assert first == tuple(cnot_along(shortest_path(g, u, v), g.cx_gates))


def test_route_cnot_rejects_equal_endpoints():
    g = path_graph(3)
    route_cnot_gates(g, 1, 3)
    for _ in range(2):
        with pytest.raises(ValueError):
            route_cnot_gates(g, 2, 2)


def test_routed_cnot_restores_any_intermediate_state():
    # intermediates in superposition must come back untouched
    g = path_graph(4)
    c = Circuit(4)
    c.add("h", (2,))
    c.add("ry", (3,), 0.71)
    c.gates.extend(route_cnot_gates(g, 1, 4))
    c.add("ry", (3,), -0.71)
    c.add("h", (2,))
    for b in (0b0000, 0b1000):
        state = sparse_run(c, b)
        want = b ^ ((b >> 3) & 1)
        assert abs(state.get(want, 0)) > 1 - 1e-10


def test_fanout_multi_target_cnot_count():
    # one control, t targets along a line: exactly 2(t+1)-1 CNOTs when the
    # targets span a contiguous path segment of length t
    for t in range(1, 6):
        g = path_graph(t + 1)
        c = fanout(g, 1, list(range(2, t + 2)))
        gates = [x for x in c.gates if x[0] == "cx"]
        assert len(gates) == 2 * (t + 1) - 1 - 2  # 2n-1 with n = t+1 qubits


def test_ladder_goes_down_injects_and_goes_back_up():
    rungs = [["a1", "a2"], ["b"], ["c1", "c2"]]
    assert ladder(rungs, ["i"]) == ["c1", "c2", "b", "a1", "a2", "i",
                                    "a1", "a2", "b", "c1", "c2"]
    assert ladder([], ["i"]) == ["i"]


def test_fanout_semantics():
    g = path_graph(5)
    c = fanout(g, 1, [2, 3, 4, 5])
    for b in (0, 0b10000):
        out = classical_out(c, b)
        want = 0b11111 if b else 0
        assert out == want


def test_synth_permutation():
    g = path_graph(4)
    perm = {1: 3, 3: 1, 2: 4, 4: 2}
    c = synth_permutation(g, perm)
    for b in range(16):
        out = classical_out(c, b)
        bits = {q: (b >> (4 - q)) & 1 for q in range(1, 5)}
        want = sum(bits[q] << (4 - perm[q]) for q in range(1, 5))
        assert out == want


def test_f2_matrix_matches_simulation(rng):
    g = path_graph(5)
    c = Circuit(5)
    for _ in range(15):
        u, v = rng.choice(range(1, 6), size=2, replace=False)
        c.gates.extend(route_cnot_gates(g, int(u), int(v)))
    rows = f2_matrix(c)  # row bitmasks over input qubits
    for trial in range(8):
        b = int(rng.integers(0, 32))
        want = 0
        for q in range(1, 6):
            bit = (b & rows[q - 1]).bit_count() % 2
            want |= bit << (5 - q)
        assert classical_out(c, b) == want
