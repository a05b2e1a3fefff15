import math

import numpy as np
from hypothesis import given, settings, strategies as st

from qgsynth.gray import (
    fwht,
    gray_code,
    phase_from_coefficients,
    solve_phase_coefficients,
)


def test_codewords_cover_and_flip_once():
    for n in range(1, 8):
        for i in range(1, n + 1):
            gc = gray_code(n, i)
            assert gc.codewords[0] == 0
            assert len(set(gc.codewords)) == 1 << n
            for j in range(1, 1 << n):
                diff = gc.codewords[j] ^ gc.codewords[j - 1]
                assert diff.bit_count() == 1
            # wrap flip closes the cycle
            assert (gc.codewords[-1] ^ gc.codewords[0]).bit_count() == 1


def test_flip_bit_histogram():
    # the start-anywhere family shifts which bit flips most often, but the
    # per-bit flip counts stay the powers of two
    for n in range(2, 8):
        gc = gray_code(n, 1)
        counts = {}
        for f in gc.flips[1:]:
            counts[f] = counts.get(f, 0) + 1
        values = sorted(counts.values(), reverse=True)
        assert values == [1 << (n - k) for k in range(1, n)] + [1]


def test_distinct_sequences_differ_in_first_flip():
    n = 5
    first = {gray_code(n, i).flips[1] for i in range(1, n + 1)}
    assert len(first) == n


def dense_solve(theta):
    n = int(math.log2(len(theta)))
    size = 1 << n
    rows = []
    for x in range(size):
        rows.append([(x & s).bit_count() % 2 for s in range(size)])
    coeff, *_ = np.linalg.lstsq(np.array(rows, dtype=float), theta,
                                rcond=None)
    return coeff


def test_solver_matches_dense_oracle(rng):
    for n in range(1, 6):
        theta = rng.uniform(0, 2 * math.pi, size=1 << n)
        theta[0] = 0.0
        fast = solve_phase_coefficients(theta)
        dense = dense_solve(theta)
        assert np.max(np.abs(fast[1:] - dense[1:])) < 1e-10


def test_solver_round_trip(rng):
    for n in range(1, 9):
        theta = rng.uniform(-math.pi, math.pi, size=1 << n)
        theta[0] = 0.0
        alpha = solve_phase_coefficients(theta)
        back = phase_from_coefficients(alpha)
        assert np.max(np.abs(back - theta)) < 1e-9


@given(st.integers(1, 6), st.integers(0))
@settings(max_examples=40, deadline=None)
def test_parity_reconstruction_property(n, seed):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0, 1, size=1 << n)
    theta[0] = 0.0
    alpha = solve_phase_coefficients(theta)
    x = int(rng.integers(0, 1 << n))
    acc = sum(alpha[s] for s in range(1, 1 << n) if (s & x).bit_count() % 2)
    assert abs(acc - theta[x]) < 1e-9


def test_fwht_of_a_stack_is_the_transform_of_each_row(rng):
    for n in range(0, 7):
        stack = rng.uniform(-3, 3, size=(5, 1 << n))
        rows = fwht(stack)
        assert rows.shape == stack.shape
        for row, want in zip(rows, stack):
            assert np.array_equal(row, fwht(want))


def test_fwht_of_a_run_of_rows_is_the_transform_of_each_row(rng):
    widths = [0, 1, 1, 3, 3, 3, 4, 6]
    run = rng.uniform(-3, 3, size=sum(1 << w for w in widths))
    got = fwht(run, widths)
    at = 0
    for w in widths:
        assert np.array_equal(got[at:at + (1 << w)], fwht(run[at:at + (1 << w)]))
        at += 1 << w


def test_zero_padded_row_keeps_the_short_transform(rng):
    # the padding pairs every block with zeros: x + 0.0 and x - 0.0 are x
    for n in range(0, 6):
        for pad in range(n, 8):
            short = rng.uniform(0, 2 * math.pi, size=1 << n)
            row = np.zeros(1 << pad)
            row[:1 << n] = short
            assert np.array_equal(fwht(row)[:1 << n], fwht(short))


def test_run_of_rows_solves_like_each_row(rng):
    widths = np.array([1, 2, 2, 3, 4, 4])
    run = rng.uniform(0, 2 * math.pi, size=int(sum(1 << widths)))
    starts = np.cumsum(1 << widths) - (1 << widths)
    run[starts] = 0.0
    alpha = solve_phase_coefficients(run, widths)
    for at, n in zip(starts, widths):
        row = slice(at, at + (1 << n))
        assert np.array_equal(alpha[row], solve_phase_coefficients(run[row]))
