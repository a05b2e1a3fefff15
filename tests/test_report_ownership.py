"""A sealed template owns its gate scan and its simulation plan: a report of
an unread bound circuit reads both from the circuit's template, and any
other circuit is scanned and verified as itself (an edited one in
test_sim.py).  The scan is kept with the edges it was made against, so a
report on other edges scans again."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state, random_unitary
from qgsynth.circuit import Circuit
from qgsynth.diag import DiagonalSpec, synth_diag_noancilla
from qgsynth.diag_ancilla import synth_diag_ancilla, synth_diag_auto
from qgsynth.graphs import (
    complete_graph,
    explicit_graph,
    path_graph,
    star_graph,
    tree_graph,
)
from qgsynth.sim import assemble_report
from qgsynth.states import (
    StateSpec,
    UcgSpec,
    UnitarySpec,
    gus_synthesize,
    qsp_synthesize,
    synth_ucg,
)

MEMO_FAMILIES = {"route", "auto", "noancilla", "ancilla", "cascade", "host",
                 "relabel", "expansion"}


def plain(c):
    """A plain copy of c: its gates and its marks, bound from no template."""
    copy = Circuit(c.n, c.ancilla, c.gates)
    copy.meta = dict(c.meta)
    return copy


def test_report_on_other_edges_scans_again():
    # complete(6) with n = 6 runs the walk over every pair; drop the edge of
    # the first CNOT and the same unread circuit must show it as a violation
    g = complete_graph(6)
    rng = np.random.default_rng(81)
    spec = DiagonalSpec(6, rng.uniform(0, 2 * np.pi, 64))
    synth_diag_auto(g, spec, 0)
    c, report = synth_diag_auto(g, spec, 0)
    assert report["violations"] == [] and c.template is not None
    cx = next(qs for name, qs, _ in c.template.gates if name == "cx")
    cut = explicit_graph(6, [e for e in g.edges if set(e) != set(cx)])
    rep = assemble_report(c, cut, spec)
    assert {"g": "cx", "q": list(cx)} in rep["violations"]
    assert rep == assemble_report(plain(c), cut, spec)
    # and back on g: the scan kept now is the one of cut's edges
    assert assemble_report(c, g)["violations"] == []


GRAPHS = {
    "path": path_graph,
    "star": lambda k: star_graph(max(k, 2)),
    "tree2": lambda k: tree_graph(2, n=k),
    "complete": complete_graph,
    "ring": lambda k: explicit_graph(
        k, [(v, v % k + 1) for v in range(1, k)] + ([(1, k)] if k > 2 else [])),
}
ENTRIES = ["auto", "noancilla", "ancilla", "qsp", "gus", "ucg"]


def _call(entry, family, n, m, rng, verify):
    """(graph, call) with call() -> (circuit, report, target, m) of one
    entry point on a fresh input each time."""
    if entry == "ancilla":  # the line layout on a path with m = 3n
        g, m = path_graph(4 * n), 3 * n
    else:
        g = GRAPHS[family](n + (0 if entry == "noancilla" else m))
        m = g.n - n

    def call():
        target = None
        if entry in ("auto", "noancilla", "ancilla"):
            spec = DiagonalSpec(n, rng.uniform(0, 2 * np.pi, 1 << n))
            if entry == "auto":
                c, rep = synth_diag_auto(g, spec, m, verify=verify)
            elif entry == "noancilla":
                c, rep = synth_diag_noancilla(g, spec, verify=verify)
            else:
                c, rep = synth_diag_ancilla(g, spec, m, verify=verify)
            target = spec
        elif entry == "qsp":
            target = StateSpec(n, random_state(rng, n))
            c, rep = qsp_synthesize(g, target, m, verify=verify)
        elif entry == "gus":
            target = UnitarySpec(n, random_unitary(rng, 1 << n))
            c, rep = gus_synthesize(g, target, m, verify=verify)
        else:
            target = UcgSpec(n, [random_unitary(rng, 2) for _ in range(1 << n - 1)],
                             int(rng.integers(1, n + 1)))
            c, rep = synth_ucg(g, target, m, verify=verify)
        return c, rep, target, m

    return g, call


@given(entry=st.sampled_from(ENTRIES), family=st.sampled_from(sorted(GRAPHS)),
       n=st.integers(2, 3), m=st.integers(0, 2), verify=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_warm_report_equals_report_of_a_plain_copy(entry, family, n, m,
                                                   verify, seed):
    rng = np.random.default_rng(seed)
    g, call = _call(entry, family, n, m, rng, verify)
    call()
    c, report, target, m = call()
    assert c.template is not None
    extra = {k: v for k, v in report.items()
             if k not in ("depth", "size", "two_qubit", "violations", "backend",
                          "residual", "ancilla_restored", "stages")}
    want = assemble_report(plain(c), g, target if verify else None, m=m,
                           backend=report["backend"], extra=extra)
    assert report == want
    if verify:
        assert report["residual"] <= 1e-8 and report["ancilla_restored"]
    assert {k[0] for k in g._memo} <= MEMO_FAMILIES


def test_report_follows_the_circuits_own_marks():
    # a warm bound circuit whose marks were replaced is reported by its own
    # marks, as a plain copy is, not by its template's scan
    g = path_graph(16)
    spec = DiagonalSpec(4, np.random.default_rng(82).uniform(0, 6, 16))
    synth_diag_auto(g, spec, 12)
    c, report = synth_diag_auto(g, spec, 12)
    assert len(report["stages"]) == len(c.meta["marks"]) > 1
    assert c.template is not None
    assert c.meta["marks"] is c.template.meta["marks"]
    c.meta["marks"] = c.meta["marks"][:1]
    rep = assemble_report(c, g, spec)
    first = report["stages"][0]["stage"]
    assert [row["stage"] for row in rep["stages"]] == [first, None]
    assert rep == assemble_report(plain(c), g, spec)
    # an equal tuple in a new object gives the template's rows back
    d, _ = synth_diag_auto(g, spec, 12)
    d.meta["marks"] = tuple(list(d.meta["marks"]))
    assert assemble_report(d, g, spec)["stages"] == report["stages"]
    # and a replaced tuple naming other stages is honoured
    e, _ = synth_diag_auto(g, spec, 12)
    end = len(e.gates)
    e.meta["marks"] = (("first", end // 2), ("second", end))
    rows = assemble_report(e, g, spec)["stages"]
    assert [row["stage"] for row in rows] == ["first", "second"]
    assert sum(row["depth"] for row in rows) == report["depth"]
