"""Gray-code index machinery and the Walsh phase-coefficient solver.

Bit convention used throughout: bit 1 of an n-bit string is the most
significant bit of its integer index, so string s maps to the integer
sum_k s_k 2^(n-k).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class GrayCode:
    n: int
    i: int
    flips: tuple  # h_{i,1..2^n}
    codewords: tuple  # integers, bit 1 = MSB; c_1 = 0


def gray_code(n, i):
    """The (n, i) Gray code: step j flips bit h_{i,j} = (r + i - 2) mod n + 1,
    r the 1-based place of the lowest set bit of j - 1 (0 for j = 1).
    Not cached: a code of width n holds 2 * 2^n integers, so each build
    makes the codes it uses and drops them when it ends."""
    if not 1 <= i <= n:
        raise ValueError(f"code index i={i} out of [1,{n}]")
    size = 1 << n
    flips = tuple((((j - 1) & (1 - j)).bit_length() + i - 2) % n + 1
                  for j in range(1, size + 1))
    words = [0]
    for j in range(2, size + 1):
        words.append(words[-1] ^ (1 << (n - flips[j - 1])))
    return GrayCode(n, i, flips, tuple(words))


def fwht(a, widths=None):
    """Fast Walsh-Hadamard transform along the last axis of a, of length
    2^k (a new array; leading axes are a stack).  Given `widths`,
    non-decreasing, the last axis is a run of rows of 2^widths[i] entries,
    each transformed on its own.

    Each stage writes the sums of the even and odd entries to the first
    half and their differences to the second half of another buffer: the
    additions of the in-place stages h = 1, 2, 4, ..., in their order, so
    the same bits.  Rows of one width are a stack; a run of several widths
    is one row after `pad` zeros that put each row at a multiple of its
    length, so no pair crosses a row, and after k stages the rows of length
    2^k hold one entry in each of 2^k segments and are read out."""
    a = np.asarray(a, dtype=float)
    shape = a.shape
    lens = [shape[-1]] if widths is None else [1 << int(w) for w in widths]
    if len(lens) > 1 and lens[0] == lens[-1]:  # rows of one width: a stack
        a, lens = a.reshape(*shape[:-1], -1, lens[0]), lens[:1]
    lead, size = a.shape[:-1], a.shape[-1]
    pad = -size % lens[-1]
    src = (np.zeros if pad else np.empty)((*lead, pad + size))
    src[..., pad:] = a
    dst, out, half = np.empty_like(src), np.empty_like(a), src.shape[-1] // 2
    i, done, seg = 0, 0, 1
    while True:
        j = bisect_right(lens, seg, i)  # rows i..j-1 are done
        if j > i:
            if j == len(lens) and not i:  # one row, in order
                return src.reshape(shape)
            at, count = (pad + done) // seg, (j - i) * seg
            out[..., done:done + count].reshape(*lead, j - i, seg)[...] = (
                src.reshape(*lead, seg, -1)[..., at:at + j - i].swapaxes(-1, -2))
            if j == len(lens):
                return out
            i, done = j, done + count
        x, y = src[..., 0::2], src[..., 1::2]
        np.add(x, y, dst[..., :half])
        np.subtract(x, y, dst[..., half:])
        src, dst, seg = dst, src, 2 * seg


@lru_cache(maxsize=None)
def _run_scales(widths, odd=0):
    """(scale, starts) of a run of rows of 2^w entries, w in widths: each
    entry's factor -2^(1 - w), -2^(-w) in the first `odd` rows, and the
    first index of every later row, read-only."""
    lens = 1 << np.array(widths)
    per_row = -2.0 / lens
    per_row[:odd] /= 2.0
    scale, starts = np.repeat(per_row, lens), (np.cumsum(lens) - lens)[odd:]
    scale.flags.writeable = starts.flags.writeable = False
    return scale, starts


def solve_phase_coefficients(theta, widths=None, odd=0):
    """Coefficients alpha with sum_s alpha_s <s,x> = theta(x) for all x.

    theta is a length-2^n array with theta[0] = 0; returns alpha of the same
    length with alpha[0] = 0.  For s != 0:
        alpha_s = -2^(1-n) sum_x (-1)^<s,x> theta(x).
    Given `widths` (non-decreasing), the last axis of theta is a run of
    such rows of 2^widths[i] angles each, not checked, all solved by one
    transform (leading axes are a stack of such runs); the run's scales and
    row starts are computed once per widths.  The first `odd` rows of the
    run may instead hold the stage-1 differences theta[0::2] - theta[1::2]
    of rows one bit wider: their entry s' is then the wider row's alpha at
    s = 2s' + 1, with the same float operations, and none is zeroed.
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
        scale, starts = _run_scales(tuple(widths), odd)
    alpha = scale * fwht(theta, widths)
    alpha[..., starts] = 0.0
    return alpha


def phase_from_coefficients(alpha):
    """Inverse map: theta(x) = sum_s alpha_s parity(s & x).

    parity(s & x) = (1 - (-1)^<s,x>) / 2, so theta = (sum(alpha) - W alpha) / 2
    with W the Walsh-Hadamard transform; the s = 0 term cancels."""
    alpha = np.asarray(alpha, dtype=float)
    return 0.5 * (alpha.sum() - fwht(alpha))
