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


def fwht(a):
    """Fast Walsh-Hadamard transform of a length-2^k array (a new array).

    Stage h pairs each block's halves x, y into (x + y, x - y) for all
    blocks at once through a (-1, 2, h) view."""
    a = np.array(a, dtype=float)
    h = 1
    while h < len(a):
        v = a.reshape(-1, 2, h)
        x = v[:, 0].copy()
        y = v[:, 1]
        v[:, 0] = x + y
        v[:, 1] = x - y
        h *= 2
    return a


def solve_phase_coefficients(theta):
    """Coefficients alpha with sum_s alpha_s <s,x> = theta(x) for all x.

    theta is a length-2^n array with theta[0] = 0; returns alpha of the same
    length with alpha[0] = 0.  For s != 0:
        alpha_s = -2^(1-n) sum_x (-1)^<s,x> theta(x).
    """
    theta = np.asarray(theta, dtype=float)
    size = len(theta)
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError("theta length must be a power of two")
    if abs(theta[0]) > 1e-12:
        raise ValueError("theta[0] must be 0 (phase normalization)")
    t = fwht(theta)
    alpha = -(2.0 ** (1 - n)) * t
    alpha[0] = 0.0
    return alpha


def phase_from_coefficients(alpha):
    """Inverse map: theta(x) = sum_s alpha_s parity(s & x).

    parity(s & x) = (1 - (-1)^<s,x>) / 2, so theta = (sum(alpha) - W alpha) / 2
    with W the Walsh-Hadamard transform; the s = 0 term cancels."""
    alpha = np.asarray(alpha, dtype=float)
    return 0.5 * (alpha.sum() - fwht(alpha))
