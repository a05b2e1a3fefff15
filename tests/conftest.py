import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, n):
    a = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return a / np.linalg.norm(a)


def distance_up_to_phase(a, b):
    """max-norm distance between matrices/vectors after aligning the global
    phase on the largest entry of b."""
    a = np.asarray(a)
    b = np.asarray(b)
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    ph = a[idx] / b[idx]
    ph /= abs(ph)
    return float(np.max(np.abs(a - ph * b)))


def bound_copy(c):
    """c as a circuit bound from a sealed template of its gates, one slot
    per r, rz and ry gate, less the CNOT pairs the seal cancels (the same
    unitary): the template keeps the scan and the plan of every circuit
    bound from it."""
    from qgsynth.circuit import PARAM_GATES, Template

    t = Template(c.n, None)
    t.ancilla, t.meta = c.ancilla, dict(c.meta)
    angles = []
    for name, qs, p in c.gates:
        if name in PARAM_GATES:
            t.rot(qs[0], len(angles), name)
            angles.append(p)
        else:
            t.gates.append((name, qs, p))
    return t.seal().bind(np.array(angles, dtype=float))
