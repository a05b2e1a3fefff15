"""A QSP or GUS cascade is bound in one pass: one ZYZ batch and one FWHT
for all of its UCGs, bound to one template per skeleton key kept on the
graph.  The gates must equal the per-UCG reference (reference_cascade.py)
on the cold and on the warm call, and a warm call must rebuild nothing."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_cascade as ref
from conftest import random_unitary
from qgsynth import gray, linear, states
from qgsynth.graphs import (
    DisconnectedGraph,
    complete_graph,
    explicit_graph,
    path_graph,
    star_graph,
)
from qgsynth.states import StateSpec, UnitarySpec, gus_synthesize, qsp_synthesize
from test_cascade_scan import GRAPHS, STATE_KINDS, UNITARY_KINDS, make_state, make_unitary
from test_templates import counting

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def graph_makers(draw, size):
    """A maker of fresh copies of one path, star, complete or random
    connected graph on `size` vertices: a random tree (each vertex joins an
    earlier one of a shuffled order) plus random extra edges."""
    kind = draw(st.sampled_from(["path", "star", "complete", "random"]))
    if kind != "random":
        return lambda: {"path": path_graph, "star": star_graph,
                        "complete": complete_graph}[kind](size)
    order = draw(st.permutations(range(1, size + 1)))
    edges = {tuple(sorted((order[i], order[draw(st.integers(0, i - 1))])))
             for i in range(1, size)}
    pairs = [(a, b) for a in range(1, size + 1) for b in range(a + 1, size + 1)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=size)))
    return lambda: explicit_graph(size, sorted(edges))


def state(kind, n, seed):
    """make_state's kinds, plus a uniform superposition: every branch of
    a stage rotates alike, so each factor row is constant and normalises
    to zero (not emitted)."""
    if kind == "uniform":
        return np.full(1 << n, 2.0 ** (-n / 2))
    return make_state(kind, n, seed)


def same_gates(c, want):
    assert c.gates == want.gates
    assert c.meta["marks"] == want.meta["marks"]


@given(data=st.data(), n=st.integers(1, 5), m=st.integers(0, 3),
       kinds=st.lists(st.sampled_from(STATE_KINDS + ["uniform"]),
                      min_size=2, max_size=2),
       seeds=st.lists(SEEDS, min_size=2, max_size=2))
@settings(max_examples=30, deadline=None)
def test_qsp_equals_per_ucg_reference(data, n, m, kinds, seeds):
    make = data.draw(graph_makers(max(n + m, 2)))
    g = make()
    m = g.n - n
    # the first call is cold; the third repeats the first key, warm
    for kind, seed in zip(kinds + kinds[:1], seeds + seeds[:1]):
        v = StateSpec(n, state(kind, n, seed))
        c, _ = qsp_synthesize(g, v, m, verify=False)
        same_gates(c, ref.qsp_circuit(make(), v, m))


@given(data=st.data(), n=st.integers(1, 3), m=st.integers(0, 2),
       kinds=st.lists(st.sampled_from(UNITARY_KINDS), min_size=2, max_size=2),
       seeds=st.lists(SEEDS, min_size=2, max_size=2))
@settings(max_examples=20, deadline=None)
def test_gus_equals_per_ucg_reference(data, n, m, kinds, seeds):
    make = data.draw(graph_makers(max(n + m, 2)))
    g = make()
    m = g.n - n
    for kind, seed in zip(kinds + kinds[:1], seeds + seeds[:1]):
        U = UnitarySpec(n, make_unitary(kind, n, seed))
        try:
            want = ref.gus_circuit(make(), U, m)
        except DisconnectedGraph:  # vertices 1..n do not induce a connected subgraph
            with pytest.raises(DisconnectedGraph):
                gus_synthesize(g, U, m, verify=False)
            continue
        c, _ = gus_synthesize(g, U, m, verify=False)
        same_gates(c, want)


# builders a warm cascade call must not enter, and its one batch and transform
REBUILDERS = [(states, "synth_permutation"), (linear, "synth_permutation"),
              (states, "_map_gates"), (states, "synth_ucg")]
ONCE = [(states, "_zyz_columns"), (gray, "fwht")]


@pytest.mark.parametrize("task, make, n", [
    ("qsp", lambda: GRAPHS["relabelled"](6), 4),
    ("gus", lambda: path_graph(4), 3),
], ids=["qsp-relabelled", "gus-n3"])
def test_warm_call_binds_in_one_pass(task, make, n):
    call, spec = ((qsp_synthesize, StateSpec) if task == "qsp"
                  else (gus_synthesize, UnitarySpec))
    rng = np.random.default_rng(21)

    def draw():
        if task == "qsp":
            return make_state("generic", n, int(rng.integers(1 << 30)))
        return random_unitary(rng, 1 << n)

    g = make()
    call(g, spec(n, draw()), g.n - n)
    keys = list(g._memo)
    for verify in (False, True):
        with counting(REBUILDERS + ONCE) as counts:
            _, report = call(g, spec(n, draw()), g.n - n, verify=verify)
        assert counts == {"synth_permutation": 0, "_map_gates": 0,
                          "synth_ucg": 0, "_zyz_columns": 1, "fwht": 1}
        assert list(g._memo) == keys
    assert report["residual"] <= 1e-8
