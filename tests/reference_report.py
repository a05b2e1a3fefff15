"""Reference report loops for the tests: `Circuit.metrics` and
`validate_connectivity` as two separate per-gate loops, the way
`qgsynth.circuit` computed them before they became views over one fused
scan.  Every gate is handled literally, so they are the oracle the fused
kernel is checked against.
"""

from qgsynth.circuit import TWO_QUBIT


def metrics(c):
    """(depth, size, two_qubit_count) with greedy ASAP layering after
    macro expansion."""
    last = [0] * (c.n + 1)
    size = 0
    twoq = 0
    for name, qs, _ in c.gates:
        if name == "swap":
            size += 3
            twoq += 3
            a, b = qs
            lay = max(last[a], last[b]) + 3
            last[a] = last[b] = lay
        elif name == "cx":
            size += 1
            twoq += 1
            a, b = qs
            lay = max(last[a], last[b]) + 1
            last[a] = last[b] = lay
        else:
            size += 1
            (q,) = qs
            last[q] += 1
    return max(last), size, twoq


def validate_connectivity(c, g):
    """Every 2-qubit gate whose pair is not a graph edge."""
    bad = []
    for gate in c.gates:
        name, qs, _ = gate
        if name in TWO_QUBIT and not g.has_edge(*qs):
            bad.append(gate)
    return bad
