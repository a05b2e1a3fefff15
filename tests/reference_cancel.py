"""Reference finder for the tests: the cancellable CNOT pairs of a gate
list, by an unbounded quadratic scan.

A pair is two equal gates cx(a, b) in one stage such that every gate
between them commutes with cx(a, b) by the rule of `Template.seal`'s pass:
a gate on neither qubit; r or rz on a; x on b; a CNOT that shares only
its control a, or only its target b.  Every gate is checked literally, so
this is the oracle the one-pass cancellation is checked against.
"""


def commutes(gate, a, b):
    """Whether gate commutes with cx(a, b) by the pass's rule."""
    name, qs = gate[0], gate[1]
    if a not in qs and b not in qs:
        return True
    if name == "cx":
        c, t = qs
        return (c == a and t != b) or (t == b and c != a)
    if qs == (a,):
        return name in ("r", "rz")
    if qs == (b,):
        return name == "x"
    return False  # swap, or another gate on a or b


def stages(c):
    """The gate index ranges of c's stages, the gates after the last mark
    forming the last."""
    ends = [end for _, end in c.meta.get("marks", ())] + [len(c.gates)]
    return list(zip([0] + ends[:-1], ends))


def cancellable_pairs(c):
    """Every (j, i), j < i, of equal CNOTs in one stage of c whose gates
    between them all commute with them."""
    gates = c.gates
    pairs = []
    for start, end in stages(c):
        for i in range(start, end):
            if gates[i][0] != "cx":
                continue
            a, b = gates[i][1]
            for j in range(i - 1, start - 1, -1):
                if gates[j][0] == "cx" and gates[j][1] == (a, b):
                    pairs.append((j, i))
                    break
                if not commutes(gates[j], a, b):
                    break
    return pairs
