"""The cascade gate scan of `qsp_synthesize` and `gus_synthesize` is kept
on the cascade's template, itself kept on the graph under the cascade's
skeleton key: every report must still equal a fresh scan of the circuit it
came with, warm or cold, whatever pieces the UCGs skipped; a cold call
scans once and a warm call not at all."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state, random_unitary
from qgsynth import circuit, diag_ancilla
from qgsynth.circuit import _scan
from qgsynth.graphs import (
    brickwall_graph,
    complete_graph,
    explicit_graph,
    path_graph,
    star_graph,
    tree_graph,
)
from qgsynth.states import StateSpec, UnitarySpec, gus_synthesize, qsp_synthesize

GRAPHS = {
    "path": path_graph,
    "star": lambda k: star_graph(max(k, 2)),
    "tree2": lambda k: tree_graph(2, n=k),
    "complete": complete_graph,
    # breadth-first order 1, 3, 2, 4, ...: QSP runs on a relabelled host
    "relabelled": lambda k: explicit_graph(
        max(k, 4), [(1, 3), (3, 2)] + [(v, v + 1) for v in range(2, max(k, 4))]),
}


def make_state(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "basis":
        v = np.zeros(1 << n, dtype=complex)
        v[rng.integers(1 << n)] = 1.0
        return v
    if kind == "real":
        v = rng.normal(size=1 << n)
    elif kind == "sparse":
        v = np.zeros(1 << n, dtype=complex)
        hits = rng.choice(1 << n, size=min(2, 1 << n), replace=False)
        v[hits] = rng.normal(size=len(hits)) + 1j * rng.normal(size=len(hits))
    else:
        return random_state(rng, n)
    return v / np.linalg.norm(v)


def make_unitary(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "identity":
        return np.eye(1 << n, dtype=complex)
    if kind == "diagonal":
        return np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 1 << n)))
    if kind == "permutation":
        return np.eye(1 << n, dtype=complex)[rng.permutation(1 << n)]
    return random_unitary(rng, 1 << n)


def assert_fresh(c, g, report):
    depth, size, twoq, bad, stages = _scan(c, g._pairs)
    assert report["depth"] == depth
    assert report["size"] == size
    assert report["two_qubit"] == twoq
    assert report["violations"] == [{"g": name, "q": list(qs)}
                                    for name, qs, _ in bad]
    assert report["stages"] == stages


def kept_scans(g, kind="cascade"):
    """The keys of g's `kind` templates that keep a scan of g's edges."""
    return [k for k, t in g._memo.items()
            if k[0] == kind and t._scanned[0] is g._pairs]


STATE_KINDS = ["generic", "basis", "real", "sparse"]
UNITARY_KINDS = ["generic", "identity", "diagonal", "permutation"]
SEEDS = st.integers(0, 2**32 - 1)


@given(family=st.sampled_from(sorted(GRAPHS)), n=st.integers(1, 4),
       m=st.integers(0, 2), kinds=st.lists(st.sampled_from(STATE_KINDS),
                                           min_size=3, max_size=3),
       seeds=st.lists(SEEDS, min_size=3, max_size=3))
@settings(max_examples=25, deadline=None)
def test_qsp_report_equals_fresh_scan(family, n, m, kinds, seeds):
    g = GRAPHS[family](n + m)
    m = g.n - n
    inputs = [StateSpec(n, make_state(k, n, s)) for k, s in zip(kinds, seeds)]
    for v in inputs + inputs[:1]:  # the last call repeats the first key
        for verify in (False, True):
            c, report = qsp_synthesize(g, v, m, verify=verify)
            assert_fresh(c, g, report)
    assert report["residual"] <= 1e-8
    assert 1 <= len(kept_scans(g)) <= len(inputs)


# no relabelled host here: GUS runs on g's own labels, and a disconnected
# prefix is refused with DisconnectedGraph
@given(family=st.sampled_from(["path", "star", "complete"]),
       n=st.integers(1, 3), m=st.integers(0, 2),
       kinds=st.lists(st.sampled_from(UNITARY_KINDS), min_size=3, max_size=3),
       seeds=st.lists(SEEDS, min_size=3, max_size=3))
@settings(max_examples=15, deadline=None)
def test_gus_report_equals_fresh_scan(family, n, m, kinds, seeds):
    g = GRAPHS[family](n + m)
    m = g.n - n
    inputs = [UnitarySpec(n, make_unitary(k, n, s))
              for k, s in zip(kinds, seeds)]
    for U in inputs + inputs[:1]:
        for verify in (False, True):
            c, report = gus_synthesize(g, U, m, verify=verify)
            assert_fresh(c, g, report)
    assert report["residual"] <= 1e-8
    assert 1 <= len(kept_scans(g)) <= len(inputs)


def counting_scans(mp):
    """Count `_scan` calls: every scan, kept or not, runs through
    `circuit._scan`."""
    calls = []

    def wrapper(*args, _fn=circuit._scan):
        calls.append(1)
        return _fn(*args)

    mp.setattr(circuit, "_scan", wrapper)
    return calls


# `compared`: the candidate templates that the diagonal keys with more than
# one candidate scan to pick the shallowest.  On a path each prefix 1..n
# has one no-ancilla candidate (the walk at n <= 2, else the general
# split): of qsp-path's keys ("auto", 2, 4), ("auto", 3, 3) and
# ("auto", 4, 2) only the first compares, the walk with the path pipeline
# on m' = 4 (m' = 2 has no layout), and gus-path's one key ("auto", 3, 1)
# has nothing to compare
@pytest.mark.parametrize("task, make, n, draw, compared", [
    ("qsp", lambda: path_graph(6), 4, lambda s: random_state(s, 4), 2),
    ("qsp", lambda: GRAPHS["relabelled"](6), 4, lambda s: random_state(s, 4), 0),
    ("gus", lambda: path_graph(4), 3, lambda s: random_unitary(s, 8), 0),
    ("gus", lambda: complete_graph(5), 2, lambda s: random_unitary(s, 4), 0),
], ids=["qsp-path", "qsp-relabelled", "gus-path", "gus-complete"])
def test_cold_call_scans_once_and_warm_call_never(task, make, n, draw, compared):
    call = qsp_synthesize if task == "qsp" else gus_synthesize
    spec = StateSpec if task == "qsp" else UnitarySpec
    g = make()
    rng = np.random.default_rng(11)
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_scans(mp)
        call(g, spec(n, draw(rng)), g.n - n, verify=False)
        assert len(calls) == 1 + compared
        for verify in (False, True):
            call(g, spec(n, draw(rng)), g.n - n, verify=verify)
        assert len(calls) == 1 + compared


def test_cold_auto_diagonal_scans_each_candidate_once():
    # path(16) with n=4, m=12 compares three candidates: the general split
    # on 1..4 and the ancilla pipeline on m' = 12 and 6 (3 < n ends the
    # ladder).  A whole brick wall has one: its untyped copy runs the same
    # general split as the brick wall itself, so it is built once.  The
    # winner keeps its scan for the report, so a cold call scans each
    # candidate once and a warm one scans nothing
    for g, n, m, built in [(path_graph(16), 4, 12, 3),
                           (brickwall_graph(1, 1, 3, 3), 8, 0, 1)]:
        rng = np.random.default_rng(14)
        with pytest.MonkeyPatch.context() as mp:
            calls = counting_scans(mp)
            dispatched, dispatch = [], diag_ancilla._dispatch
            mp.setattr(diag_ancilla, "_dispatch",
                       lambda *a: dispatched.append(a) or dispatch(*a))
            c, report = diag_ancilla.synth_diag_auto(
                g, rng.uniform(0, 2 * np.pi, 1 << n), m, verify=False)
            assert len(calls) == built and len(dispatched) == 1
            diag_ancilla.synth_diag_auto(g, rng.uniform(0, 2 * np.pi, 1 << n), m)
            assert len(calls) == built and len(dispatched) == 1
        assert_fresh(c, g, report)
        assert kept_scans(g, "auto") == [("auto", n, m)]
        assert {k[0] for k in g._memo} == {"route", "auto"}


def test_generic_states_share_one_scan_entry():
    g = path_graph(7)
    rng = np.random.default_rng(12)
    before = len(g._memo)
    qsp_synthesize(g, StateSpec(5, random_state(rng, 5)), 2, verify=False)
    added = len(g._memo) - before
    for _ in range(19):
        qsp_synthesize(g, StateSpec(5, random_state(rng, 5)), 2, verify=False)
    assert len(g._memo) - before == added
    assert len(kept_scans(g)) == 1


def test_mutating_report_stages_leaves_the_next_report_alone():
    g = star_graph(5)
    v = StateSpec(4, random_state(np.random.default_rng(13), 4))
    _, report = qsp_synthesize(g, v, 1, verify=False)
    want = [dict(row) for row in report["stages"]]
    report["stages"][0]["depth"] = -1
    report["stages"].append({"stage": "extra"})
    report["violations"].append({"g": "cx", "q": [1, 5]})
    c2, report2 = qsp_synthesize(g, v, 1, verify=False)
    assert report2["stages"] == want
    assert report2["violations"] == []
    assert_fresh(c2, g, report2)
