"""Reference UCG cascades for the tests: the per-UCG loops that
`qsp_synthesize` and `gus_synthesize` ran before they bound a whole
cascade in one pass.

Each UCG is compiled on its own by `synth_ucg`, on a fresh relabelled host
where QSP needs one, and the circuits are joined and marked stage by
stage.  A QSP stage's target still holds |0>, so its first factor,
lam1 = diag(1, e^{id}) per branch (rz(d) at width 1), acts as the identity
and its gates are cut from the UCG's circuit.  The batched binder must
give exactly these gate lists.
"""

from qgsynth.circuit import Circuit
from qgsynth.diag_ancilla import _auto_template
from qgsynth.graphs import explicit_graph
from qgsynth.linear import synth_permutation
from qgsynth.states import _prefix_order, state_to_ucgs, synth_ucg, unitary_to_ucgs


def qsp_circuit(g, v, m):
    """The cascade of v's UCGs on g with m ancilla, one synth_ucg per UCG."""
    order = _prefix_order(g)
    natural = order == list(range(1, g.n + 1))
    pos = {vtx: i + 1 for i, vtx in enumerate(order)}
    host = g if natural else explicit_graph(
        g.n, [(pos[a], pos[b]) for a, b in g.edges])
    c = Circuit(g.n)
    for j, V in enumerate(state_to_ucgs(v), start=1):
        gates = _on_clean_target(synth_ucg(host, V, g.n - j), host, g.n - j)
        if not natural:
            gates = [(name, tuple(order[q - 1] for q in qs), p)
                     for name, qs, p in gates]
        c.extend(gates)
        c.mark(f"ucg_{j}")
    if not natural:
        c.extend(synth_permutation(g, {o: i + 1 for i, o in enumerate(order)}))
        c.mark("relabel")
    return c


def _on_clean_target(c, g, m):
    """The gates of c, a last-target UCG's `synth_ucg` circuit on g with m
    ancilla, less those of its first factor."""
    n, target, emitted = c.meta["skeleton"]
    assert target == n
    if not emitted[0]:
        return c.gates
    return c.gates[1 if n == 1 else len(_auto_template(g, n, m).gates):]


def gus_circuit(g, U, m):
    """The sequence of U's UCGs on g with m ancilla, one synth_ucg per UCG."""
    c = Circuit(g.n)
    for k, V in enumerate(unitary_to_ucgs(U), start=1):
        c.extend(synth_ucg(g, V, m))
        c.mark(f"ucg_{k}")
    return c
