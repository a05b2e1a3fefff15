"""Reference angle pipeline for the tests: the forms the cascade binder
used before its angles became one factor-major vector.

`fwht` is the in-place radix-2 transform, one stage at a time; `factors`
derives every branch's three factor pairs from its 2x2 algebra and
scatters them into a UCG-major vector through a computed index, and
`cascade_params` solves every row of them; `state_branches` builds a
state's every branch table, the real stages' too;
`unitary_to_ucgs` splits each block with `scipy.linalg.cossin` and builds
every Y-rotation branch with `gate_matrix`.  The fast versions must give
exactly these bits.
"""

import math

import numpy as np
from scipy.linalg import cossin

from qgsynth.circuit import gate_matrix
from qgsynth.states import UcgSpec, UnitarySpec, zyz_angles_batch


def fwht(a, widths=None):
    """Walsh-Hadamard transform along the last axis, or of each row of a
    run of rows of 2^widths[i] entries, stage h pairing halves in place."""
    a = np.array(a, dtype=float)
    lens = [a.shape[-1]] if widths is None else [1 << int(w) for w in widths]
    rows, i, h = a.reshape(-1), 0, 1
    while h < lens[-1]:
        while lens[i] <= h:
            rows, i = rows[lens[i]:], i + 1
        v = rows.reshape(-1, 2, h)
        x = v[:, 0].copy()
        y = v[:, 1]
        v[:, 0] = x + y
        v[:, 1] = x - y
        h *= 2
    return a


def factors(heads, branches, clean=False):
    """(theta, euler, skeletons) with UCG k's three factors from
    6 * (its first branch) on in theta, 2^n angles each.

    Branch z is u = e^{ia} Rz(b) Ry(c) Rz(d).  With Rz(x) =
    e^{-ix/2} diag(1, e^{ix}), it is lam3 . Ry(c) . lam1 for
    lam1 = diag(1, e^{id}) and lam3 = diag(e^{ip}, e^{i(p+b)}) whose
    phases sum to a: p + b/2 + d/2 = a.  Ry(c) is the middle factor
    Rz(c) = diag(e^{-ic/2}, e^{ic/2}) between the mid gates, with no phase
    of its own.  Each factor is taken less its UCG's head entry, a global
    phase, and lam1 and lam3 are reduced mod 2 pi.  With `clean`, the
    target holds |0>, which lam1 and rz(d) leave alone: both are zero."""
    widths = np.array([n for n, _ in heads])
    counts = 1 << (widths - 1)
    first = np.cumsum(counts) - counts
    a, b, c, d = zyz_angles_batch(branches)
    th = np.zeros((len(a), 3, 2))
    if not clean:
        th[:, 0, 1] = d
    th[:, 1, 0] = -c / 2.0
    th[:, 1, 1] = c / 2.0
    th[:, 2, 0] = a - (b + d) / 2.0
    th[:, 2, 1] = th[:, 2, 0] + b
    if not np.isfinite(th).all():
        raise ValueError("angles must be finite")
    head = np.repeat(first, counts)
    th = th - th[head, :, :1]
    th[:, ::2] = np.mod(th[:, ::2], 2 * math.pi)
    theta = np.empty(th.size)
    theta[(4 * head + 2 * np.arange(len(a)))[:, None, None] + np.arange(2)
          + np.repeat(2 * counts, counts)[:, None, None] * np.arange(3)[:, None]] = th
    euler = np.array([np.zeros(len(a)) if clean else d, c, b])
    emitted = np.logical_or.reduceat((np.abs(th) > 1e-14).any(axis=2), first)
    emitted[widths == 1] = np.abs(euler[:, first[widths == 1]].T) > 1e-14
    return theta, euler, tuple((*h, tuple(e))
                               for h, e in zip(heads, emitted.tolist()))


def state_branches(v):
    """The branch tables of v's UCGs V_1..V_n, one after the other, from
    the amplitude tree kept as a list of levels."""
    n, amp = v.n, v.amplitudes
    mags = [np.abs(amp)]  # mags[j]: the amplitude tree's level j
    for _ in range(n):
        sq = mags[0] ** 2
        mags.insert(0, np.sqrt(sq[0::2] + sq[1::2]))
    parts = [(mags[n - 1], amp)]
    if n > 1:
        parts.insert(0, (np.concatenate(mags[:n - 1]),
                         np.concatenate(mags[1:n])))
    tables = []
    for cw, below in parts:
        live = cw > 1e-15
        # branch w maps |0> to the normalised pair (p, q) below prefix w
        col = below.reshape(-1, 2) / np.where(live, cw, 1.0)[:, None]
        p, q = col[:, 0], col[:, 1]
        br = np.stack([p, -np.conj(q), q, np.conj(p)], axis=1).reshape(-1, 2, 2)
        br[~live] = np.eye(2)
        tables.append(br)
    return np.concatenate(tables)


def cascade_params(heads, branches, clean=False):
    """(params, skeletons) of a cascade as its template reads them: every
    factor row of `factors` solved for its Walsh coefficients by `fwht`,
    one 2^n-entry row per UCG, then the Euler angles."""
    theta, euler, skeletons = factors(heads, branches, clean)
    widths = np.array([n for n, _ in heads])
    lens = 1 << widths
    scale = np.repeat(-(2.0 ** (1 - widths)), lens)
    alpha = np.array([scale * fwht(row, widths)
                      for row in factor_major(theta, heads)])
    alpha[:, np.cumsum(lens) - lens] = 0.0
    return np.concatenate([alpha.ravel(), euler.ravel()]), skeletons


def factor_major(theta, heads):
    """`factors`' theta laid out as the binder's: row f holds factor f of
    every UCG back to back."""
    out = [[], [], []]
    at = 0
    for n, _ in heads:
        for f in range(3):
            out[f].append(theta[at:at + (1 << n)])
            at += 1 << n
    return np.array([np.concatenate(row) for row in out])


def unitary_to_ucgs(U):
    """The 2^n - 1 UCGs of U's cosine-sine demultiplexing, one cossin call
    per block."""
    if not isinstance(U, UnitarySpec):
        U = UnitarySpec(int(np.log2(len(U))), U)
    n = U.n
    out = []

    def demux(blocks, k):
        if k == n - 1:
            out.append(UcgSpec(n, blocks, n))
            return
        half = 1 << (n - k - 1)
        ls, rs, angles = [], [], []
        for blk in blocks:
            (u1, u2), th, (v1h, v2h) = cossin(blk, p=half, q=half, separate=True)
            ls += [u1, u2]
            rs += [v1h, v2h]
            angles.append(np.atleast_1d(th))
        demux(rs, k + 1)
        out.append(UcgSpec(n, [gate_matrix("ry", 2.0 * ang)
                               for th in angles for ang in th], k + 1))
        demux(ls, k + 1)

    demux([U.matrix], 0)
    return out
