"""Which diagonal factors a UCG emits, and which of their slots.

A last-target UCG is lam3 . (I x SH) . lam2 . (I x HS+) . lam1
(`ucg_to_diagonals`).  Per branch e^{ia} Rz(b) Ry(c) Rz(d), the middle
factor is Rz(c) = (-c/2, c/2) with no phase of its own, so a UCG of real
rotations Ry(c), c in [0, pi] (QSP stages below n, cosine-sine
multiplexors), emits it alone.  lam1 = (0, d) fixes |0> on the target, so a
QSP stage, whose target still holds |0>, never emits it, and a GUS cascade,
whose targets hold anything, keeps it.  lam2 less its head sums to a
constant over the target bit, so its Walsh coefficients whose index leaves
out the target bit vanish, and a cascade template reads only the others.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_angles as ref
from conftest import distance_up_to_phase, random_unitary
from qgsynth import states
from qgsynth.circuit import gate_matrix
from qgsynth.graphs import (
    brickwall_graph,
    complete_graph,
    explicit_graph,
    grid_graph,
    path_graph,
    star_graph,
    tree_graph,
)
from qgsynth.states import (
    StateSpec,
    UcgSpec,
    UnitarySpec,
    gus_synthesize,
    qsp_synthesize,
    synth_ucg,
    ucg_to_diagonals,
)
from qgsynth.gray import solve_phase_coefficients
from test_cascade_scan import GRAPHS as SCAN_GRAPHS
from test_cascade_scan import STATE_KINDS, make_state, make_unitary
from test_templates import recording_skeletons
from test_ucg_reference import u2

SEEDS = st.integers(0, 2**32 - 1)
# Ry(c) for c in [0, pi]: cos and sin of c/2 are both >= 0
REAL = st.one_of(st.just(0.0), st.just(math.pi), st.floats(0.0, math.pi)).map(
    lambda c: gate_matrix("ry", c))


def _mid(pair, n):
    """The matrix of a pair of mid gates, applied in order to qubit n."""
    m = np.eye(2)
    for name in pair:
        m = gate_matrix(name) @ m
    return np.kron(np.eye(1 << (n - 1)), m)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.one_of(u2(), REAL), min_size=1 << (n - 1),
                         max_size=1 << (n - 1)))))
@settings(max_examples=100, deadline=None)
def test_three_diagonals_make_the_ucg(case):
    n, branches = case
    lam1, lam2, lam3, (mid1, mid2) = ucg_to_diagonals(UcgSpec(n, branches, n))
    made = (np.diag(np.exp(1j * lam3.theta)) @ _mid(mid2, n)
            @ np.diag(np.exp(1j * lam2.theta)) @ _mid(mid1, n)
            @ np.diag(np.exp(1j * lam1.theta)))
    want = np.zeros((1 << n, 1 << n), dtype=complex)
    for z, br in enumerate(branches):
        want[2 * z:2 * z + 2, 2 * z:2 * z + 2] = br
    assert distance_up_to_phase(made, want) <= 1e-10


@given(n=st.integers(1, 5), data=st.data())
@settings(max_examples=40, deadline=None)
def test_real_rotations_emit_the_middle_factor_alone(n, data):
    branches = data.draw(st.lists(REAL, min_size=1 << (n - 1),
                                  max_size=1 << (n - 1)))
    V = UcgSpec(n, branches, n)
    lam1, _, lam3, _ = ucg_to_diagonals(V)
    assert not lam1.theta.any() and not lam3.theta.any()
    skeleton = synth_ucg(path_graph(n), V, 0, verify=False)[0].meta["skeleton"]
    # an all-identity UCG emits nothing at all
    assert skeleton[2] in ((False, True, False), (False, False, False))
    if any(abs(br[1, 0]) > 1e-7 for br in branches):
        assert skeleton[2] == (False, True, False)


# graph family -> a graph of exactly k vertices, or None
GRAPHS = {
    "path": path_graph,
    "star": lambda k: star_graph(k) if k > 1 else None,
    "tree": lambda k: tree_graph(2, n=k),
    "grid": lambda k: grid_graph([2, k // 2]) if k % 2 == 0 and k > 2 else None,
    "complete": lambda k: complete_graph(k) if k > 1 else None,
    "brickwall": lambda k: {6: brickwall_graph(1, 1, 2, 3),
                            8: brickwall_graph(1, 1, 3, 3),
                            12: brickwall_graph(2, 1, 3, 3)}.get(k),
}


def assert_clean_cascade(g, v, m):
    with recording_skeletons() as skeletons:
        _, report = qsp_synthesize(g, v, m)
    assert skeletons and not any(emitted[0] for _, _, emitted in skeletons)
    assert report["residual"] <= 1e-8
    assert report["ancilla_restored"] is True
    assert report["violations"] == []


@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_qsp_never_emits_the_first_factor(family):
    ran = 0
    for n in range(1, 7):
        for m in (0, n):
            for seed, kind in enumerate(STATE_KINDS):
                g = GRAPHS[family](n + m)
                if g is None:
                    continue
                assert_clean_cascade(g, StateSpec(n, make_state(kind, n, seed)), m)
                ran += 1
    assert ran >= 12


@given(n=st.integers(1, 6), extra=st.booleans(), data=st.data(),
       kind=st.sampled_from(STATE_KINDS), seed=SEEDS)
@settings(max_examples=30, deadline=None)
def test_qsp_on_relabelled_random_graphs_never_emits_the_first_factor(
        n, extra, data, kind, seed):
    # a random tree on shuffled labels plus random extra edges
    size = max(2 * n if extra else n, 2)
    order = data.draw(st.permutations(range(1, size + 1)))
    edges = {tuple(sorted((order[i], order[data.draw(st.integers(0, i - 1))])))
             for i in range(1, size)}
    pairs = [(a, b) for a in range(1, size + 1) for b in range(a + 1, size + 1)]
    edges |= set(data.draw(st.lists(st.sampled_from(pairs), max_size=size)))
    g = explicit_graph(size, sorted(edges))
    assert_clean_cascade(g, StateSpec(n, make_state(kind, n, seed)), size - n)


@pytest.mark.parametrize("n, m", [(1, 0), (2, 0), (3, 2)])
def test_gus_keeps_the_first_factor(n, m):
    U = UnitarySpec(n, random_unitary(np.random.default_rng(40 + n), 1 << n))
    with recording_skeletons() as skeletons:
        _, report = gus_synthesize(path_graph(n + m), U, m)
    assert any(emitted[0] for _, _, emitted in skeletons)
    assert report["residual"] <= 1e-8


# -- the even Walsh half of lam2 ---------------------------------------------

EPS = np.finfo(float).eps


def assert_even_lam2_vanishes(heads, lam2, alpha):
    """Every UCG's lam2 Walsh coefficients at even indices are zero to
    rounding: at most 2 (n + 1) eps max|lam2|, n rounded FWHT stages of
    2^n entries scaled by 2^(1 - n), plus the rounding of the entries."""
    at = 0
    for n, _ in heads:
        row = slice(at, at + (1 << n))
        bound = 2 * (n + 1) * EPS * np.abs(lam2[row]).max()
        assert np.abs(alpha[row][0::2]).max() <= bound
        at += 1 << n


def assert_factors_lose_the_even_half(heads, branches, ref_branches=None):
    widths = [n for n, _ in heads]
    theta = states._factors(heads, branches)[0]
    assert_even_lam2_vanishes(heads, theta[1],
                              solve_phase_coefficients(theta[1], widths))
    want = ref.factor_major(
        ref.factors(heads, branches if ref_branches is None else ref_branches)[0],
        heads)[1]
    lens = 1 << np.array(widths)
    alpha = np.repeat(-2.0 / lens, lens) * ref.fwht(want, widths)
    alpha[np.cumsum(lens) - lens] = 0.0
    assert_even_lam2_vanishes(heads, want, alpha)


@given(n=st.integers(1, 10), kind=st.sampled_from(STATE_KINDS), seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_state_lam2_has_no_even_walsh_half(n, kind, seed):
    v = StateSpec(n, make_state(kind, n, seed))
    assert_factors_lose_the_even_half([(j, j) for j in range(1, n + 1)],
                                      states._state_branches(v),
                                      ref.state_branches(v))


@given(n=st.integers(2, 4), seed=SEEDS)
@settings(max_examples=20, deadline=None)
def test_haar_unitary_lam2_has_no_even_walsh_half(n, seed):
    heads, blocks = states._demux(UnitarySpec(n, make_unitary("generic", n, seed)))
    assert_factors_lose_the_even_half(heads, np.concatenate(
        [states._last_target_branches(br, *h) for h, br in zip(heads, blocks)]))


@given(ns=st.lists(st.integers(1, 7), min_size=1, max_size=4).map(sorted),
       data=st.data(), seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_ucg_stack_lam2_has_no_even_walsh_half(ns, data, seed):
    rng = np.random.default_rng(seed)
    heads = [(n, data.draw(st.integers(1, n))) for n in ns]
    branches = [states._last_target_branches(
        np.array([random_unitary(rng, 2) for _ in range(1 << (n - 1))]), n, t)
        for n, t in heads]
    assert_factors_lose_the_even_half(heads, np.concatenate(branches))


def template_skeletons(g, t):
    """The skeletons of cascade template t, the last item of its key in g's
    memo."""
    return next(k for k, v in g._memo.items() if v is t)[-1]


def assert_odd_lam2_slots(t, skeletons):
    """Each wider UCG's lam2 splice reads every odd Walsh index of its row
    once and no even one; a width-1 UCG reads no lam2 slot."""
    counts = [1 << (n - 1) for n, _, _ in skeletons]
    size = sum(counts)
    idx = np.asarray(t.idx)
    first = 0
    for (n, _, emitted), count in zip(skeletons, counts):
        base = 2 * (size + first)
        read = np.sort(idx[(idx >= base) & (idx < base + 2 * count)] - base)
        odd = list(range(1, 1 << n, 2)) if n > 1 and emitted[1] else []
        assert read.tolist() == odd
        first += count


def _ucg_target_2():
    rng = np.random.default_rng(61)
    V = UcgSpec(4, [random_unitary(rng, 2) for _ in range(8)], 2)
    g = path_graph(5)
    c, report = synth_ucg(g, V, 1)
    return g, c, report, (c.meta["skeleton"],)


def _cascade(call, g, spec):
    def run():
        c, report = call(g, spec, g.n - spec.n)
        return g, c, report, template_skeletons(g, c.template)
    return run


ODD_CASES = {
    "qsp-path": _cascade(qsp_synthesize, path_graph(6),
                         StateSpec(6, make_state("generic", 6, 62))),
    "qsp-star-ancilla": _cascade(qsp_synthesize, star_graph(8),
                                 StateSpec(5, make_state("real", 5, 63))),
    "qsp-relabelled-host": _cascade(qsp_synthesize, SCAN_GRAPHS["relabelled"](6),
                                    StateSpec(5, make_state("generic", 5, 64))),
    "gus-path": _cascade(gus_synthesize, path_graph(3),
                         UnitarySpec(3, make_unitary("generic", 3, 65))),
    "gus-complete-ancilla": _cascade(gus_synthesize, complete_graph(4),
                                     UnitarySpec(3, make_unitary("generic", 3, 66))),
    "ucg-target-2": _ucg_target_2,
}


@pytest.mark.parametrize("case", sorted(ODD_CASES))
def test_cascade_templates_read_only_odd_lam2_slots(case):
    g, c, report, skeletons = ODD_CASES[case]()
    assert any(n > 1 and emitted[1] for n, _, emitted in skeletons)
    assert_odd_lam2_slots(c.template, skeletons)
    assert report["residual"] <= 1e-8
