"""The batched UCG decomposition in `qgsynth.states` against the frozen
per-branch loops in `reference_ucg`: the same angles to 1e-12 (compared as
e^{i theta}, so a 2*pi wrap is no difference) and the same cascade
branches, on generic, diagonal, anti-diagonal and near-threshold branches
and on states with zero-mass prefixes."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ucg as ref
from conftest import random_unitary
from qgsynth.circuit import gate_matrix
from qgsynth.diag import DiagonalSpec
from qgsynth.states import (
    UcgSpec,
    state_to_ucgs,
    ucg_to_diagonals,
    zyz_angles_batch,
)

ANGLE = st.floats(-2 * math.pi, 2 * math.pi)
# a column entry of magnitude `tiny` selects a degenerate ZYZ case; keep
# near-threshold magnitudes a relative 1% away from the 1e-12 cut so that
# last-bit rounding cannot pick a different case
TINY = st.one_of(st.just(0.0), st.floats(0.0, 0.99e-12),
                 st.floats(1.01e-12, 2e-12))


@st.composite
def u2(draw):
    """A 2x2 unitary e^{ia} Rz(b) Ry(c) Rz(d), or a Haar-random one."""
    kind = draw(st.sampled_from(["haar", "generic", "diagonal", "anti"]))
    if kind == "haar":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return random_unitary(rng, 2)
    a, b, d = draw(ANGLE), draw(ANGLE), draw(ANGLE)
    if kind == "generic":
        c = draw(ANGLE)
    else:  # |v10| = sin(c/2) or |v00| = cos(c/2) is tiny
        c = 2.0 * math.asin(draw(TINY))
        if kind == "anti":
            c = math.pi - c
    return (np.exp(1j * a) * gate_matrix("rz", b) @ gate_matrix("ry", c)
            @ gate_matrix("rz", d))


def close_angles(x, y):
    return np.max(np.abs(np.exp(1j * np.asarray(x))
                         - np.exp(1j * np.asarray(y)))) <= 1e-12


@given(st.lists(u2(), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_batched_zyz_matches_reference(branches):
    got = zyz_angles_batch(np.array(branches))
    for k, u in enumerate(branches):
        want = ref.zyz_angles(u)
        assert close_angles([x[k] for x in got], want)
        assert close_angles([x[0] for x in zyz_angles_batch(u)], want)


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(u2(), min_size=1 << (n - 1),
                                             max_size=1 << (n - 1)))))
@settings(max_examples=100, deadline=None)
def test_batched_ucg_to_diagonals_matches_reference(case):
    n, branches = case
    *lams, _ = ucg_to_diagonals(UcgSpec(n, branches, n))
    for lam, th in zip(lams, ref.ucg_to_diagonals(branches)):
        assert close_angles(lam.theta, DiagonalSpec(n, th).theta)


@st.composite
def states_with_zero_mass(draw):
    """A unit vector on 1..6 qubits with some aligned blocks zeroed, so
    prefixes of every length can carry no mass."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    for _ in range(draw(st.integers(0, 3))):
        size = 1 << draw(st.integers(0, n - 1))
        start = size * draw(st.integers(0, (1 << n) // size - 1))
        amp[start:start + size] = 0.0
    if not np.any(amp):
        amp[-1] = 1.0
    return amp / np.linalg.norm(amp)


@given(states_with_zero_mass())
@settings(max_examples=100, deadline=None)
def test_batched_state_cascade_matches_reference(amp):
    got = state_to_ucgs(amp)
    want = ref.state_to_ucgs(amp)
    assert len(got) == len(want)
    for j, (V, branches) in enumerate(zip(got, want), start=1):
        assert (V.n, V.target) == (j, j)
        assert np.max(np.abs(V.branches - np.array(branches))) <= 1e-12
        for br, wb in zip(V.branches, branches):
            if np.array_equal(wb, np.eye(2)):  # a zero-mass prefix
                assert np.array_equal(br, np.eye(2))
