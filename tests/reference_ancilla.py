"""Reference Gray cycle of the five-stage ancilla pipeline: the loop that
`diag_ancilla._stage_graycycle` ran before it routed each target's CNOTs
once and replayed whole CNOT layers.  Step by step and target by target it
asks the router for the nearest holder of the flipped bit, routes that
CNOT, then rotates every target whose mask is nonzero.  The table-driven
stage must emit exactly these gates and slots.
"""

from qgsynth.gray import gray_code
from qgsynth.linear import route_cnot_gates


def stage_graycycle(c, g, layout, rt):
    n = layout.n
    p = layout.p
    codes = {l: gray_code(n - p, l) for l in set(layout.ell_plan)}
    plan = [codes[l] for l in layout.ell_plan]
    cycle = 1 << (n - p)
    for j in range(1, cycle + 1):
        jn = j + 1 if j < cycle else 1
        # U_Gen: advance every target's prefix codeword by one Gray step
        for code, v in zip(plan, layout.r_targ):
            h = code.flips[jn - 1]
            c.gates.extend(route_cnot_gates(g, rt.source(h, v), v))
        # rotation layer: target k + 1 holds the mask (codeword << p) | k
        for k, (code, v) in enumerate(zip(plan, layout.r_targ)):
            s = (code.codewords[jn - 1] << p) | k
            if s:
                c.rot(v, s)
