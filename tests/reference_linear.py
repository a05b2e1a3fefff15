"""Reference multi-target CNOT for the tests: one control XORed into every
target along a path of the graph, built as the `linear.ladder` of the
target chain.  The tests check its truth table and the paper's 2n - 1
CNOT count, and through it the ladder the no-ancilla diagonals emit.
"""

from qgsynth.circuit import Circuit
from qgsynth.linear import ladder


def fanout(g, control, targets):
    """XOR the control qubit into every target: |x>|y_1..y_t> ->
    |x>|y_1 + x .. y_t + x>, where control, t_1, .., t_k is a path in g.

    Exactly 2t - 1 CNOTs: the `ladder` of the target chain around the root
    injection."""
    chain = [control] + list(targets)
    for a, b in zip(chain, chain[1:]):
        if not g.has_edge(a, b):
            raise ValueError(f"({a},{b}) not an edge")
    rungs = [[("cx", (a, b), None)] for a, b in zip(targets, targets[1:])]
    root = ("cx", (control, targets[0]), None)
    return Circuit(g.n, gates=ladder(rungs, [root]))
