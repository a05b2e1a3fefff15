"""Reference UCG cascades for the tests: the per-UCG loops that
`qsp_synthesize` and `gus_synthesize` ran before they bound a whole
cascade in one pass.

Each UCG is compiled on its own by `synth_ucg`, on a fresh relabelled host
where QSP needs one, and the circuits are joined and marked stage by
stage.  A QSP stage's target still holds |0>, so its first factor,
lam1 = diag(1, e^{id}) per branch (rz(d) at width 1), acts as the identity
and its gates are cut from the UCG's circuit.  The cut needs the UCG's
gates before the cancellation pass of `Template.seal` (a pair may span two
factors), so a QSP stage's UCG is sealed without it, and the pass runs on
the joined cascade, stage by stage, as it does on the batched template.
The batched binder must give exactly these gate lists.
"""

from itertools import compress
from unittest import mock

from qgsynth import circuit
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
        if j > 1:  # its factors' template, built with the pass
            _auto_template(host, j, g.n - j)
        with mock.patch.object(circuit, "_cancelled", lambda *args: None):
            ucg = synth_ucg(host, V, g.n - j, verify=False)[0]
        c.extend(_on_clean_target(ucg, host, g.n - j))
        c.mark(f"ucg_{j}")
    c = _cancel_pairs(c)
    if not natural:
        c.gates = [(name, tuple(order[q - 1] for q in qs), p)
                   for name, qs, p in c.gates]
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
        c.extend(synth_ucg(g, V, m, verify=False)[0])
        c.mark(f"ucg_{k}")
    return c


def _cancel_pairs(c):
    """c less the CNOT pairs `Template.seal` cancels, stage by stage."""
    ends = [end for _, end in c.meta["marks"]]
    keep = circuit._cancelled(c.gates, ends, c.n)
    if keep is None:
        return c
    out = Circuit(c.n, c.ancilla, compress(c.gates, keep))
    out.meta["marks"] = tuple((name, sum(keep[:end]))
                              for name, end in c.meta["marks"])
    return out
