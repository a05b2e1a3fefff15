"""Reference UCG decomposition for the tests: the per-branch loops that
`qgsynth.states` used before it decomposed every branch of a UCG at once.

One 2x2 matrix at a time: scalar ZYZ angles, the amplitude-tree cascade of
a state built branch by branch, and the three diagonal angle vectors of a
last-target UCG filled entry by entry.  Slow, but every branch is handled
literally, so it is the oracle the batched versions are checked against.
"""

import cmath
import math

import numpy as np


def zyz_angles(u):
    """Euler angles (a, b, c, d) with u = e^{ia} Rz(b) Ry(c) Rz(d)."""
    u = np.asarray(u, dtype=complex)
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    a = 0.5 * cmath.phase(det)
    v = u * cmath.exp(-1j * a)
    c = 2.0 * math.atan2(abs(v[1, 0]), abs(v[0, 0]))
    if abs(v[0, 0]) < 1e-12:
        b, d = 2.0 * cmath.phase(v[1, 0]), 0.0
    elif abs(v[1, 0]) < 1e-12:
        b, d = 2.0 * cmath.phase(v[1, 1]), 0.0
    else:
        bpd = 2.0 * cmath.phase(v[1, 1])
        bmd = 2.0 * cmath.phase(v[1, 0])
        b, d = (bpd + bmd) / 2.0, (bpd - bmd) / 2.0
    return a, b, c, d


def state_to_ucgs(amp):
    """Branch lists of the cascade V_1..V_n preparing the unit vector amp:
    entry j - 1 holds the 2^(j-1) branches of V_j.  Zero-mass branches
    become identity."""
    amp = np.asarray(amp, dtype=complex)
    n = len(amp).bit_length() - 1
    mags = [None] * (n + 1)
    mags[n] = np.abs(amp)
    for j in range(n - 1, -1, -1):
        sq = mags[j + 1] ** 2
        mags[j] = np.sqrt(sq[0::2] + sq[1::2])
    stages = []
    for j in range(1, n + 1):
        branches = []
        for w in range(1 << (j - 1)):
            cw = mags[j - 1][w]
            if cw <= 1e-15:
                branches.append(np.eye(2, dtype=complex))
                continue
            if j < n:
                a0 = mags[j][2 * w] / cw
                a1 = mags[j][2 * w + 1] / cw
                branches.append(
                    np.array([[a0, -a1], [a1, a0]], dtype=complex)
                )
            else:
                p = amp[2 * w] / cw
                q = amp[2 * w + 1] / cw
                branches.append(
                    np.array(
                        [[p, -np.conj(q)], [q, np.conj(p)]], dtype=complex
                    )
                )
        stages.append(branches)
    return stages


def ucg_to_diagonals(branches):
    """(th1, th2, th3): unnormalised angle vectors of the three diagonal
    factors of the last-target UCG with these branches."""
    size = 2 * len(branches)
    th1 = np.zeros(size)
    th2 = np.zeros(size)
    th3 = np.zeros(size)
    for z, br in enumerate(branches):
        a, b, c, d = zyz_angles(br)
        base = a - (b + c + d) / 2.0
        th1[2 * z + 1] = d
        th2[2 * z + 1] = c
        th3[2 * z] = base
        th3[2 * z + 1] = base + b
    return th1, th2, th3
