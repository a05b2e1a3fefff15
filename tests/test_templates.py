"""Per-graph diagonal templates: a warm call binds new angles to the cached
template and must give exactly what a cold call on a fresh graph gives,
without re-entering a builder; returned objects are the caller's own, and
the cache dies with its graph."""
import gc
import json
import sys
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state, random_unitary
from qgsynth import circuit, diag, diag_ancilla, graphs, linear, sim, states
from qgsynth.circuit import Template, circuit_to_json
from qgsynth.diag import DiagonalSpec, synth_diag_noancilla
from qgsynth.diag_ancilla import (
    synth_diag_ancilla,
    synth_diag_auto,
    synth_diag_expander_ancilla,
)
from qgsynth.graphs import (
    complete_graph,
    explicit_graph,
    grid_graph,
    path_graph,
    star_graph,
    tree_graph,
)
from qgsynth.states import StateSpec, UnitarySpec, gus_synthesize, qsp_synthesize

# (graph family, n) -> fresh graph; m is the rest of the graph
FAMILIES = {
    "path": lambda n: path_graph(n),
    "grid": lambda n: grid_graph([2, n // 2]) if n % 2 == 0 else grid_graph([n]),
    "tree2": lambda n: tree_graph(2, n=n),
    "star": lambda n: star_graph(n),
    "complete": lambda n: complete_graph(n),
    "explicit": lambda n: explicit_graph(
        n, [(v, v + 1) for v in range(1, n)] + [(1, n)]),
    "ancilla-path": lambda n: path_graph(4 * n),
    "ancilla-grid": lambda n: grid_graph([8, 10]),
    "ancilla-tree": lambda n: tree_graph(2, n=31),
    "expander": lambda n: complete_graph(2 * n),
}


def _relabelled_path(k):
    """Breadth-first order 1, 3, 2, 4, ...: QSP runs on a relabelled host."""
    return explicit_graph(k, [(1, 3), (3, 2)] + [(v, v + 1) for v in range(2, k)])


# builders that a warm call must not enter
BUILDERS = [(diag, "_framework"), (diag, "_walk"),
            (diag_ancilla, "_ancilla_pipeline"),
            (diag_ancilla, "_expander_template")]
ROUTERS = [diag, diag_ancilla, linear]


@contextmanager
def counting(targets):
    """Count calls of each (module, name) while active."""
    counts = {}
    with pytest.MonkeyPatch.context() as mp:
        for mod, name in targets:
            fn = getattr(mod, name)
            counts.setdefault(name, 0)

            def wrapper(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            mp.setattr(mod, name, wrapper)
        yield counts


@contextmanager
def recording_skeletons():
    """The skeleton (n, target, emitted) of every UCG a cascade binds while
    active: the last item of its template's key."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        compile_ = states._compile

        def record(g, key, *args):
            seen.extend(key[-1])
            return compile_(g, key, *args)

        mp.setattr(states, "_compile", record)
        yield seen


def spec(n, seed):
    return DiagonalSpec(n, np.random.default_rng(seed).uniform(0, 7, 1 << n))


def dump(c):
    return json.dumps(circuit_to_json(c))


def without_residual(report):
    return {k: v for k, v in report.items() if k != "residual"}


def _expander(g, s):
    # the cascade that leaves n = s.n vertices of complete(2n) for the inputs
    k = s.n // 2
    return synth_diag_expander_ancilla(g, s, graphs.expander_cascade(g, k, 2 * k))


def entry_points(family, n, g):
    """(name, call(g, spec)) pairs that run this family's template."""
    calls = [("auto", lambda g, s: synth_diag_auto(g, s, g.n - n))]
    if g.n == n:
        calls.append(("noancilla", lambda g, s: synth_diag_noancilla(g, s)))
    if family in ("ancilla-path", "ancilla-grid", "ancilla-tree"):
        calls.append(("ancilla", lambda g, s: synth_diag_ancilla(g, s, g.n - n)))
    if family == "expander":
        calls.append(("expander", _expander))
    return calls


@given(family=st.sampled_from(sorted(FAMILIES)), n=st.integers(2, 5),
       seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
@settings(max_examples=40, deadline=None)
def test_warm_call_equals_cold_call(family, n, seeds):
    if family == "ancilla-grid":
        n = min(n, 2)  # grid(8x10) holds m >= 36n only for n = 2
    warm_g = FAMILIES[family](n)
    for name, call in entry_points(family, n, warm_g):
        call(warm_g, spec(n, seeds[0]))
        with counting(BUILDERS + [(m, "route_cnot_gates") for m in ROUTERS]) as counts:
            warm_c, warm_r = call(warm_g, spec(n, seeds[1]))
        # the expander variant's template is kept under its cascade
        assert set(counts.values()) == {0}, (name, counts)
        cold_c, cold_r = call(FAMILIES[family](n), spec(n, seeds[1]))
        assert dump(warm_c) == dump(cold_c)
        assert without_residual(warm_r) == without_residual(cold_r)
        assert warm_r["residual"] <= 1e-8
    if family.startswith("ancilla-"):
        assert warm_r["backend"] == family
    if family == "expander":
        assert warm_r["backend"] == "ancilla-expander"


def kept(g):
    """g's memo keys in insertion order, routes left out."""
    return [k for k in g._memo if k[0] != "route"]


def test_gus_builds_each_key_once():
    # the 7 UCGs of an n = 3 unitary are all 3-qubit: their nonzero
    # diagonal factors share the one template ("auto", 3, 0); the cascade's
    # template is kept beside it and keeps its own scan and plan
    g = path_graph(3)
    U = UnitarySpec(3, random_unitary(np.random.default_rng(5), 8))
    with counting([(diag_ancilla, "_build_auto")]) as counts, \
            recording_skeletons() as skeletons:
        _, report = gus_synthesize(g, U, 0)
    assert counts == {"_build_auto": 1}
    assert len(skeletons) == 7
    assert kept(g) == [("auto", 3, 0),
                       ("cascade", "gus-demux", 3, 0, tuple(skeletons))]
    t = g._memo[kept(g)[-1]]
    assert t._scanned[0] is g._pairs and t.plan is not None
    assert report["residual"] <= 1e-8


def test_qsp_factors_share_one_key_per_ucg():
    g = star_graph(4)
    with counting([(diag_ancilla, "_build_auto")]) as counts, \
            recording_skeletons() as skeletons:
        qsp_synthesize(g, StateSpec(4, random_state(np.random.default_rng(6), 4)), 0)
    # UCG j >= 2 has diagonal factors on (j, 4 - j): the middle one, and
    # for j = 4 the last too; UCG 1 has none
    assert counts == {"_build_auto": 3}
    assert len(skeletons) == 4
    assert kept(g) == [
        *(("auto", j, 4 - j) for j in (2, 3, 4)),
        ("cascade", "qsp-cascade", 4, 0, tuple(skeletons))]
    t = g._memo[kept(g)[-1]]
    assert t._scanned[0] is g._pairs and t.plan is not None


@pytest.mark.parametrize("make, n", [(lambda: path_graph(12), 3),
                                     (lambda: path_graph(7), 7)],
                         ids=["ancilla", "noancilla"])
def test_mutating_results_leaves_the_next_call_alone(make, n):
    g = make()
    s = spec(n, 8)
    c, report = synth_diag_auto(g, s, g.n - n)
    want_c, want_r = dump(c), json.dumps(report)
    c.gates[0] = ("x", (1,), None)
    c.gates.append(("x", (2,), None))
    c.meta["marks"] += (("extra", 0),)
    c.meta["note"] = "changed"
    report["stages"][0]["depth"] = -1
    report["stages"].append({"stage": "extra"})
    c2, report2 = synth_diag_auto(g, s, g.n - n)
    assert dump(c2) == want_c
    assert json.dumps(report2) == want_r
    assert "note" not in c2.meta
    assert c2.meta["marks"][-1] != ("extra", 0)


def test_cache_dies_with_its_graph():
    g = path_graph(12)
    synth_diag_auto(g, spec(3, 9), 9)
    assert g._memo
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def _module_sizes():
    """(module, name) -> length of every module-level dict, list or set in
    the qgsynth package."""
    return {(mod_name, name): len(value)
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "qgsynth" or mod_name.startswith("qgsynth.")
            for name, value in vars(mod).items()
            if isinstance(value, (dict, list, set))}


def test_no_module_level_state_grows():
    # every graph below has a new edge set, so a cache keyed by edges at
    # module level would grow; the per-graph memo dies with each graph
    rng = np.random.default_rng(14)
    before = _module_sizes()
    for k in range(5, 10):
        ring = explicit_graph(k, [(v, v % k + 1) for v in range(1, k + 1)]
                              + [(1, 3)])
        for g in (complete_graph(k), ring):
            graphs.vertex_expansion(g)
            synth_diag_auto(g, spec(3, int(rng.integers(1 << 30))), k - 3,
                            verify=False)
    gc.collect()
    assert _module_sizes() == before


def _live(kind):
    gc.collect()
    return sum(isinstance(o, kind) for o in gc.get_objects())


def test_relabelled_hosts_do_not_accumulate():
    # breadth-first order 1, 3, 2, 4, 5: the cascade runs on a relabelled
    # host graph, built once and kept in g's cache with its templates and
    # its qubit map, so warm calls build nothing, reuse the one plan kept on
    # the cascade's template, and host and plan die with g
    g = explicit_graph(5, [(1, 3), (3, 2), (2, 4), (4, 5)])
    v = StateSpec(3, random_state(np.random.default_rng(10), 3))
    hosts = []
    build = states.explicit_graph

    def record(*args):
        host = build(*args)
        hosts.append(weakref.ref(host))
        return host

    with pytest.MonkeyPatch.context() as mp, \
            recording_skeletons() as skeletons:
        mp.setattr(states, "explicit_graph", record)
        qsp_synthesize(g, v, 2)
        first = tuple(skeletons)
        graphs_before, templates_before = (_live(graphs.ConstraintGraph),
                                           _live(Template))
        plan = weakref.ref(g._memo[("cascade", "qsp-cascade", 3, 2, first)].plan)
        with counting([(sim, "Plan")]) as counts:
            for _ in range(19):  # no circuit is held: it holds its template
                report = qsp_synthesize(g, v, 2)[1]
        assert counts == {"Plan": 0}
        assert report["residual"] <= 1e-8
        assert len(hosts) == 1
        assert _live(graphs.ConstraintGraph) == graphs_before
        assert _live(Template) == templates_before
    assert kept(g) == [("host",), ("relabel",),
                       ("cascade", "qsp-cascade", 3, 2, first)]
    assert hosts[0]() is g._memo[("host",)]
    assert plan() is g._memo[("cascade", "qsp-cascade", 3, 2, first)].plan
    del g
    gc.collect()
    assert hosts[0]() is None
    assert plan() is None


# -- a bound circuit builds its gates on first read --------------------------

def _keyed_family(kind, verify):
    """(graph, m, call) where call() returns (circuit, report, target) of
    one keyed entry point on a fresh input each time."""
    rng = np.random.default_rng(71)
    if kind == "diag":
        g, m, n = path_graph(16), 12, 4

        def call():
            s = DiagonalSpec(n, rng.uniform(0, 7, 1 << n))
            return (*synth_diag_auto(g, s, m, verify=verify), s)
    elif kind == "qsp":
        g, m, n = path_graph(5), 2, 3

        def call():
            s = StateSpec(n, random_state(rng, n))
            return (*qsp_synthesize(g, s, m, verify=verify), s)
    else:
        g, m, n = path_graph(3), 1, 2

        def call():
            s = UnitarySpec(n, random_unitary(rng, 1 << n))
            return (*gus_synthesize(g, s, m, verify=verify), s)
    return g, m, call


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("kind", ["diag", "qsp", "gus"])
def test_warm_keyed_call_builds_no_gates(kind, verify, monkeypatch):
    g, m, call = _keyed_family(kind, verify)
    call()
    fills, fill = [], Template._fill
    monkeypatch.setattr(Template, "_fill", lambda t, a: fills.append(t) or fill(t, a))
    c, report, target = call()
    assert fills == [] and c.template is not None
    if verify:
        assert report["residual"] <= 1e-9 and report["ancilla_restored"] is True
    template = c.template
    gates = c.gates  # the first read builds them, once
    assert c.template is None and c.gates is gates and fills == [template]
    if verify:
        assert (report["residual"], True) == sim.verify_target(c, target, m)


@pytest.mark.parametrize("kind", ["qsp", "qsp-relabelled", "gus", "ancilla"])
def test_unread_circuit_serialises_as_its_gates(kind, monkeypatch):
    rng = np.random.default_rng(72)
    if kind.startswith("qsp"):
        g = _relabelled_path(7) if kind == "qsp-relabelled" else path_graph(7)
        c, _ = qsp_synthesize(g, StateSpec(4, random_state(rng, 4)), 3, verify=False)
    elif kind == "gus":
        c, _ = gus_synthesize(path_graph(4), UnitarySpec(3, random_unitary(rng, 8)),
                              1, verify=False)
    else:
        c, _ = synth_diag_ancilla(path_graph(20), spec(4, 73), 16)
    fills, fill = [], Template._fill
    monkeypatch.setattr(Template, "_fill", lambda t, a: fills.append(t) or fill(t, a))
    unread = dump(c)
    assert fills == [] and c.template is not None
    assert "r" in {gate["g"] for gate in json.loads(unread)["gates"]}
    c.gates
    assert fills and c.template is None
    assert dump(c) == unread


@pytest.mark.parametrize("edit", ["angle", "angle+move"])
@pytest.mark.parametrize("kind", ["diag", "qsp", "gus"])
def test_edited_bound_circuit_is_checked_as_edited(kind, edit, monkeypatch):
    # a read and edited circuit is bound from no template: it gets a plan
    # and a scan of its own, the template keeps its plan, and the report is
    # the circuit's own
    g, m, call = _keyed_family(kind, True)
    call()
    c, _, target = call()
    t = c.template
    kept = t.plan
    rs = [i for i, gate in enumerate(c.gates) if gate[0] == "r"]
    name, qs, p = c.gates[rs[0]]
    c.gates[rs[0]] = (name, qs, p + 0.5)
    if edit == "angle+move":
        name, (q,), p = c.gates[rs[-1]]
        c.gates[rs[-1]] = (name, (q % c.n + 1,), p)
    compiled, scanned = [], []
    compile_plan, scan = sim.Plan, circuit._scan
    monkeypatch.setattr(sim, "Plan", lambda c: compiled.append(c) or compile_plan(c))
    monkeypatch.setattr(circuit, "_scan", lambda c, *a: scanned.append(c) or scan(c, *a))
    rep = sim.assemble_report(c, g, target, m=m)
    assert compiled == scanned == [c]
    assert t.plan is kept
    assert (rep["residual"], rep["ancilla_restored"]) == sim.verify_target(c, target, m)
    assert rep["residual"] > 1e-6
    monkeypatch.undo()
    assert rep == sim.assemble_report(c, g, target, m=m)
