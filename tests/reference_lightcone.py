"""Reference lightcone analysis for the tests: the alternating layered
form the package used to build before auditing (single-qubit runs merged
into the slot before their qubit's next CNOT, CNOTs scheduled ASAP), kept
as slot membership only, with no matrices, and the backward reachability
pass over it.  `bounds.lightcone_profile` must give the same sets, and the
transformation tests read their CNOT-layer counts from `layers`.
"""


def layers(c):
    """(slots, cnot_layers) of circuit c, a SWAP as 3 CNOTs: slots[i] is
    the set of qubits with one-qubit gates in the single-qubit layer
    before cnot_layers[i], slots[-1] the final layer; there are
    len(cnot_layers) + 1 slots."""
    pending = set()  # qubits whose one-qubit run is not yet placed
    last = [0] * (c.n + 1)  # last CNOT layer touching each qubit
    slots = [set()]
    cnot_layers = []

    def flush(q, layer):
        # place q's pending run in the slot right before CNOT layer `layer`
        if q in pending:
            while len(slots) <= layer:
                slots.append(set())
            slots[layer].add(q)
            pending.discard(q)

    for name, qs, _ in c.expanded().gates:
        if name == "cx":
            a, b = qs
            lay = max(last[a], last[b])
            flush(a, lay)
            flush(b, lay)
            while len(cnot_layers) <= lay:
                cnot_layers.append([])
            cnot_layers[lay].append((a, b))
            last[a] = last[b] = lay + 1
        else:
            (q,) = qs
            pending.add(q)
    for q in list(pending):
        flush(q, len(cnot_layers))
    while len(slots) < len(cnot_layers) + 1:
        slots.append(set())
    return slots, cnot_layers


def profile_sets(c, n_inputs):
    """Backward-reachable sets S'_1..S'_{d+1} of c with inputs 1..n_inputs:
    layer 2i+1 is slot i, layer 2i CNOT layer i; a wire persists from the
    first one-qubit gate on its qubit onward, and a CNOT joins both its
    qubits to both successors."""
    slots, cnot_layers = layers(c)
    d_total = 2 * len(cnot_layers) + 1
    first1q = {}
    for i, slot in enumerate(slots):
        for q in slot:
            first1q.setdefault(q, 2 * i + 1)

    def acting(layer):
        if layer % 2 == 1:
            return slots[(layer - 1) // 2]
        touched = set()
        for a, b in cnot_layers[layer // 2 - 1]:
            touched.add(a)
            touched.add(b)
        return touched

    reached = set(range(1, n_inputs + 1))
    sets = [None] * (d_total + 1)
    sets[d_total] = frozenset(range(1, n_inputs + 1))
    for layer in range(d_total, 0, -1):
        nxt = {j for j in reached if first1q.get(j, d_total + 2) <= layer}
        if layer % 2 == 0:
            for a, b in cnot_layers[layer // 2 - 1]:
                if a in reached or b in reached:
                    nxt.update((a, b))
        sets[layer - 1] = frozenset(nxt & acting(layer))
        reached = nxt
    return sets
