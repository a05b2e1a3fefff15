"""Gray-code index machinery and the Walsh phase-coefficient solver.

Bit convention used throughout: bit 1 of an n-bit string is the most
significant bit of its integer index, so string s maps to the integer
sum_k s_k 2^(n-k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def ruler(j):
    """Largest k such that 2^(k-1) divides j; ruler(0) == 0 by convention."""
    if j == 0:
        return 0
    return (j & -j).bit_length()


def gray_index(i, j, n):
    """Flip position h_{ij} of the (n, i) Gray code, j in [1, 2^n]."""
    if not 1 <= i <= n:
        raise ValueError(f"code index i={i} out of [1,{n}]")
    if j == 1:
        return n if i == 1 else i - 1
    return (ruler(j - 1) + i - 2) % n + 1


@dataclass(frozen=True)
class GrayCode:
    n: int
    i: int
    flips: tuple  # h_{i,1..2^n}
    codewords: tuple  # integers, bit 1 = MSB; c_1 = 0


@lru_cache(maxsize=None)
def gray_code(n, i):
    """The (n, i) Gray code, memoised since it is pure and immutable; a
    cached code of width n holds 2 * 2^n integers for the process's life."""
    size = 1 << n
    flips = tuple(gray_index(i, j, n) for j in range(1, size + 1))
    words = [0]
    for j in range(2, size + 1):
        words.append(words[-1] ^ (1 << (n - flips[j - 1])))
    return GrayCode(n, i, flips, tuple(words))


def fwht(a, widths=None):
    """Fast Walsh-Hadamard transform along the last axis of a, of length
    2^k (a new array).  Given `widths`, non-decreasing, a is instead a run
    of rows of 2^widths[i] entries, each transformed on its own.

    Stage h pairs each block's halves x, y into (x + y, x - y) for all
    blocks at once through a (-1, 2, h) view; no block crosses a row, and
    the view skips the rows already done, which lead the run."""
    a = np.array(a, dtype=float)
    lens = [a.shape[-1]] if widths is None else [1 << int(w) for w in widths]
    rows, i, h = a.reshape(-1), 0, 1
    while h < lens[-1]:
        while lens[i] <= h:  # row i is done
            rows, i = rows[lens[i]:], i + 1
        v = rows.reshape(-1, 2, h)
        x = v[:, 0].copy()
        y = v[:, 1]
        v[:, 0] = x + y
        v[:, 1] = x - y
        h *= 2
    return a


def solve_phase_coefficients(theta, widths=None):
    """Coefficients alpha with sum_s alpha_s <s,x> = theta(x) for all x.

    theta is a length-2^n array with theta[0] = 0; returns alpha of the same
    length with alpha[0] = 0.  For s != 0:
        alpha_s = -2^(1-n) sum_x (-1)^<s,x> theta(x).
    Given `widths` (an array, non-decreasing), theta is a run of such rows
    of 2^widths[i] angles each, not checked, all solved by one transform.
    """
    theta = np.asarray(theta, dtype=float)
    if widths is None:
        size = len(theta)
        n = size.bit_length() - 1
        if size != 1 << n:
            raise ValueError("theta length must be a power of two")
        if abs(theta[0]) > 1e-12:
            raise ValueError("theta[0] must be 0 (phase normalization)")
        scale, starts = -(2.0 ** (1 - n)), 0
    else:
        lens = 1 << widths
        scale = np.repeat(-(2.0 ** (1 - widths)), lens)
        starts = np.cumsum(lens) - lens
    alpha = scale * fwht(theta, widths)
    alpha[starts] = 0.0
    return alpha


def phase_from_coefficients(alpha):
    """Inverse map: theta(x) = sum_s alpha_s parity(s & x).

    parity(s & x) = (1 - (-1)^<s,x>) / 2, so theta = (sum(alpha) - W alpha) / 2
    with W the Walsh-Hadamard transform; the s = 0 term cancels."""
    alpha = np.asarray(alpha, dtype=float)
    return 0.5 * (alpha.sum() - fwht(alpha))
