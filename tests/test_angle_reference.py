"""The angle pipeline must give the bits of its reference forms
(reference_angles.py): the transform on every shape it takes, the
factor-major factors of every kind of cascade, the angles a QSP cascade
binds, and the direct LAPACK cosine-sine split.  Bits are compared as
int64 views, so +0.0 and -0.0 differ."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cossin

import reference_angles as ref
from qgsynth import states
from qgsynth.graphs import path_graph, star_graph
from qgsynth.gray import fwht
from qgsynth.states import StateSpec, UcgSpec, UnitarySpec, qsp_synthesize
from test_cascade_scan import STATE_KINDS, UNITARY_KINDS, make_state, make_unitary

SEEDS = st.integers(0, 2**32 - 1)


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def entries(seed, shape):
    """Normal entries with exact zeros of both signs and repeated values,
    which make sums and differences cancel exactly."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape)
    pick = rng.random(shape)
    a[pick < 0.15] = 0.0
    a[(pick >= 0.15) & (pick < 0.25)] = -0.0
    a[pick > 0.9] = 1.5
    return a


@given(k=st.integers(0, 14), stack=st.integers(0, 3), seed=SEEDS)
@settings(max_examples=60, deadline=None)
def test_fwht_of_one_width_equals_reference(k, stack, seed):
    a = entries(seed, (stack, 1 << k) if stack else 1 << k)
    got = fwht(a)
    same_bits(got, np.stack([ref.fwht(r) for r in a]) if stack else ref.fwht(a))


@given(widths=st.lists(st.integers(0, 9), min_size=1, max_size=8).map(sorted),
       stack=st.integers(0, 3), seed=SEEDS)
@settings(max_examples=150, deadline=None)
def test_fwht_of_a_run_equals_reference(widths, stack, seed):
    size = sum(1 << w for w in widths)
    a = entries(seed, (stack, size) if stack else size)
    got = fwht(a, np.array(widths))
    want = (np.stack([ref.fwht(r, widths) for r in a]) if stack
            else ref.fwht(a, widths))
    same_bits(got, want)


def same_factors(heads, branches):
    theta, euler, skeletons = states._factors(heads, branches)
    want, want_euler, want_skeletons = ref.factors(heads, branches)
    same_bits(theta, ref.factor_major(want, heads))
    same_bits(euler, want_euler)
    assert skeletons == want_skeletons


@given(n=st.integers(1, 12), kind=st.sampled_from(STATE_KINDS), seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_state_factors_equal_reference(n, kind, seed):
    v = StateSpec(n, make_state(kind, n, seed))
    same_factors([(j, j) for j in range(1, n + 1)], states._state_branches(v))


QSP_GRAPHS = {}  # n -> the star (path for n = 1) every example at n reuses


@given(n=st.integers(1, 12), kind=st.sampled_from(STATE_KINDS), seed=SEEDS)
@example(n=1, kind="real", seed=4)  # b = 2 pi: rz(b) is emitted, lam3 is 0
@settings(max_examples=60, deadline=None)
def test_qsp_binds_the_reference_angles(n, kind, seed):
    # a warm call binds the template kept under the reference's skeletons
    # to the reference's angles: every branch table, the real stages' too,
    # through ZYZ with clean targets and every factor row through the FWHT
    g = QSP_GRAPHS.setdefault(n, star_graph(n) if n > 1 else path_graph(1))
    v = StateSpec(n, make_state(kind, n, seed))
    branches = ref.state_branches(v)
    same_bits(states._state_branches(v).view(float), branches.view(float))
    qsp_synthesize(g, v, 0, verify=False)
    c, _ = qsp_synthesize(g, v, 0, verify=False)
    params, skeletons = ref.cascade_params([(j, j) for j in range(1, n + 1)],
                                           branches, clean=True)
    assert c.template is g._memo[("cascade", "qsp-cascade", n, 0, skeletons)]
    same_bits(c.angles, params[c.template.idx])


def kernel_state(kind, n, seed):
    """make_state's kinds, plus a state whose first half has zero mass:
    every stage has dead branches, which `_table` builds as the identity."""
    if kind != "zero-half":
        return make_state(kind, n, seed)
    v = make_state("generic", n, seed)
    v[:len(v) // 2] = 0
    return v / np.linalg.norm(v)


@given(n=st.integers(1, 10), kind=st.sampled_from(["zero-half", "real", "generic"]),
       seed=SEEDS)
@example(n=1, kind="zero-half", seed=0)
@example(n=1, kind="real", seed=1)
@example(n=1, kind="generic", seed=2)
@settings(max_examples=80, deadline=None)
def test_stage_n_kernel_equals_reference(n, kind, seed):
    # stage n's ZYZ, taken straight from its amplitude pairs, must give the
    # bits of the reference's branch table through zyz_angles_batch in
    # every row it feeds: lam2 of every stage, stage n's lam3, c and b
    v = StateSpec(n, kernel_state(kind, n, seed))
    size, last = (1 << n) - 1, (1 << (n - 1)) - 1
    heads = [(j, j) for j in range(1, n + 1)]
    params, skeletons = states._qsp_params(v)
    want, want_skeletons = ref.cascade_params(heads, ref.state_branches(v), clean=True)
    for row in (slice(2 * size, 4 * size), slice(4 * size + 2 * last, 6 * size),
                slice(7 * size, 8 * size), slice(8 * size + last, 9 * size)):
        same_bits(params[row], want[row])
    assert skeletons == want_skeletons


@given(n=st.integers(2, 5), kind=st.sampled_from(UNITARY_KINDS), seed=SEEDS)
@settings(max_examples=20, deadline=None)
def test_unitary_factors_equal_reference(n, kind, seed):
    ucgs = states.unitary_to_ucgs(UnitarySpec(n, make_unitary(kind, n, seed)))
    same_factors([(V.n, V.target) for V in ucgs],
                 np.concatenate([states._last_target_branches(V.branches, V.n, V.target)
                                 for V in ucgs]))


@given(n=st.integers(1, 6), data=st.data(), seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_one_ucg_factors_equal_reference(n, data, seed):
    rng = np.random.default_rng(seed)
    kind = data.draw(st.sampled_from(["random", "identity", "diagonal"]))
    count = 1 << (n - 1)
    if kind == "random":
        branches = [make_unitary("random", 1, int(rng.integers(1 << 30)))
                    for _ in range(count)]
    elif kind == "identity":
        branches = [np.eye(2)] * count
    else:
        branches = [np.diag(np.exp(1j * rng.uniform(0, 7, 2))) for _ in range(count)]
    V = UcgSpec(n, branches, data.draw(st.integers(1, n)))
    same_factors([(n, V.target)],
                 states._last_target_branches(V.branches, n, V.target))


@pytest.mark.parametrize("kind", UNITARY_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_direct_csd_equals_cossin(kind, n):
    for seed in range(3):
        U = make_unitary(kind, n, seed)
        h = 1 << (n - 1)
        uncsd, uncsd_lwork = states._uncsd()
        work, rwork, _ = uncsd_lwork(2 * h, h, h)
        *_, th, u1, u2, v1h, v2h, info = uncsd(
            U[:h, :h], U[:h, h:], U[h:, :h], U[h:, h:],
            lwork=int(work.real), lrwork=int(rwork))
        (w1, w2), want, (x1, x2) = cossin(U, p=h, q=h, separate=True)
        assert info == 0
        for got, exp in [(th, want), (u1, w1), (u2, w2), (v1h, x1), (v2h, x2)]:
            assert np.array_equal(got, exp)
        got, want = states.unitary_to_ucgs(U), ref.unitary_to_ucgs(U)
        assert [(V.n, V.target) for V in got] == [(V.n, V.target) for V in want]
        for V, W in zip(got, want):
            same_bits(V.branches.view(float), W.branches.view(float))
