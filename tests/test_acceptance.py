"""Exit checks for the whole toolkit: one test per headline property, each
printing a single PASS line with its measured figure of merit.

Instances synthesized by the correctness checks are cached so the
lower-bound audit can sweep every one of them.
"""
import time
from collections import Counter

import numpy as np

from qgsynth.bounds import (
    brickwall_embedding,
    depth_lower_bound,
    lightcone_budget_check,
    lightcone_profile,
    transform_circuit,
)
from qgsynth.circuit import Circuit, validate_connectivity
from qgsynth.diag import DiagonalSpec, synth_diag_noancilla
from qgsynth.diag_ancilla import (
    synth_diag_ancilla,
    synth_diag_auto,
    synth_diag_expander_ancilla,
)
from qgsynth.gray import solve_phase_coefficients
from qgsynth.graphs import (
    brickwall_graph,
    build_graph,
    complete_graph,
    expander_cascade,
    grid_graph,
    path_graph,
    star_graph,
    tree_graph,
)
from qgsynth.gray import gray_code
from qgsynth.linear import route_cnot_gates
from qgsynth.sim import sparse_run, verify_target
from qgsynth.states import (
    StateSpec,
    UcgSpec,
    UnitarySpec,
    gus_synthesize,
    qsp_synthesize,
    synth_ucg,
    unitary_to_ucgs,
)
import reference_lightcone as ref_lc
from reference_linear import fanout

# (graph, task, n, m, measured depth) for every circuit synthesized by the
# correctness criteria; consumed by the lower-bound audit
SYNTH_INSTANCES = []


def _record(g, task, n, m, report):
    SYNTH_INSTANCES.append((g, task, n, m, report["depth"]))


def random_connected_graph(rng, n):
    """Random connected explicit graph on n vertices (spanning tree plus
    extra edges)."""
    edges = set()
    order = list(rng.permutation(np.arange(1, n + 1)))
    for a, b in zip(order, order[1:]):
        edges.add((min(a, b), max(a, b)))
    extra = max(1, n // 2)
    for _ in range(extra):
        a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return build_graph(
        {"kind": "explicit", "n": n,
         "edges": [[int(a), int(b)] for a, b in sorted(edges)]}
    )


def random_su2(rng):
    a = rng.normal(size=4)
    a /= np.linalg.norm(a)
    return np.array(
        [[a[0] + 1j * a[1], a[2] + 1j * a[3]],
         [-a[2] + 1j * a[3], a[0] - 1j * a[1]]]
    )


def random_state(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def haar_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_01_gray_code_suite():
    t0 = time.time()
    for n in range(1, 13):
        size = 1 << n
        for i in range(1, n + 1):
            gc = gray_code(n, i)
            assert len(set(gc.codewords)) == size
            for j in range(1, size):
                diff = gc.codewords[j] ^ gc.codewords[j - 1]
                assert diff == 1 << (n - gc.flips[j])
            # flip-count law: position carrying role k flips 2^{n-k}
            # times for k < n, the slowest position twice (incl. wrap)
            counts = Counter(gc.flips)
            for k in range(1, n):
                pos = (k + i - 2) % n + 1
                assert counts[pos] == 1 << (n - k)
            slowest = (n + i - 2) % n + 1
            assert counts[slowest] == 2
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: Gray codes n<=12, all i; flip law exact "
          f"({elapsed:.2f}s)")


def fwht_oracle(a):
    """Independent Walsh-Hadamard transform (recursive, numpy-free core)."""
    a = list(a)
    if len(a) == 1:
        return a
    half = len(a) // 2
    x = fwht_oracle(a[:half])
    y = fwht_oracle(a[half:])
    return [u + v for u, v in zip(x, y)] + [u - v for u, v in zip(x, y)]


def test_02_walsh_solver():
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    worst_dense = 0.0
    for trial in range(50):
        n = 2 + trial % 9  # n in [2, 10]
        theta = rng.uniform(-np.pi, np.pi, size=1 << n)
        theta[0] = 0.0
        alpha = solve_phase_coefficients(theta)
        # reconstruction oracle: theta(x) = (sum alpha - WHT(alpha)(x)) / 2
        t = fwht_oracle(alpha)
        total = sum(alpha)
        rebuilt = np.array([(total - tx) / 2 for tx in t])
        worst = max(worst, float(np.max(np.abs(rebuilt - theta))))
        if n <= 6:
            # dense oracle: solve the parity system directly
            size = 1 << n
            A = np.array([[(x & s).bit_count() % 2 for s in range(size)]
                          for x in range(size)], dtype=float)
            dense, *_ = np.linalg.lstsq(A, theta, rcond=None)
            dense[0] = 0.0
            worst_dense = max(worst_dense,
                              float(np.max(np.abs(dense - alpha))))
    assert worst <= 1e-9
    assert worst_dense <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 2: Walsh solver 50 thetas residual {worst:.2e}, "
          f"dense agreement {worst_dense:.2e} ({elapsed:.2f}s)")


def diag_families(rng):
    for n in range(2, 9):
        yield f"path{n}", path_graph(n), n
    yield "grid[3,2]", grid_graph([3, 2]), 6
    for n in range(2, 9):
        yield f"tree2-{n}", tree_graph(2, n=n), n
    for n in range(2, 9):
        yield f"tree3-{n}", tree_graph(3, n=n), n
    for n in range(2, 9):
        yield f"star{n}", star_graph(n), n
    yield "K8", complete_graph(8), 8
    for n in range(2, 9):
        yield f"rand{n}", random_connected_graph(rng, n), n


def test_03_diag_noancilla_families():
    t0 = time.time()
    rng = np.random.default_rng(103)
    worst = 0.0
    count = 0
    for label, g, n in diag_families(rng):
        spec = DiagonalSpec(n, rng.uniform(0, 2 * np.pi, size=1 << n))
        c, report = synth_diag_noancilla(g, spec)
        assert report["violations"] == [], label
        assert report["residual"] <= 1e-8, label
        assert report["size"] <= 16 * (1 << n), label
        worst = max(worst, report["residual"])
        _record(g, "diag", n, 0, report)
        count += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"\nPASS criterion 3: {count} no-ancilla diagonals, worst residual "
          f"{worst:.2e}, size <= 16*2^n ({elapsed:.2f}s)")


def ancilla_off_mass(c, n, m):
    anc_mask = (1 << m) - 1
    worst = 0.0
    for x in range(1 << n):
        state = sparse_run(c, x << m)
        mass = sum(abs(a) ** 2 for b, a in state.items() if b & anc_mask)
        worst = max(worst, mass)
    return worst


def test_04_diag_ancilla():
    t0 = time.time()
    rng = np.random.default_rng(104)
    worst_res = 0.0
    worst_mass = 0.0
    for kind in ("path", "tree"):
        for n in (3, 4, 5):
            m = min(3 * n, 14 - n)
            g = (path_graph(n + m) if kind == "path"
                 else tree_graph(2, n=n + m))
            spec = DiagonalSpec(n, rng.uniform(0, 2 * np.pi, size=1 << n))
            c, report = synth_diag_ancilla(g, spec, m)
            assert report["violations"] == []
            assert report["residual"] <= 1e-8
            mass = ancilla_off_mass(c, n, m)
            assert mass <= 1e-10
            worst_res = max(worst_res, report["residual"])
            worst_mass = max(worst_mass, mass)
            _record(g, "diag", n, m, report)
    # 3-stage expander backend on K6
    g = complete_graph(6)
    n, m = 3, 3
    spec = DiagonalSpec(n, rng.uniform(0, 2 * np.pi, size=1 << n))
    c, _ = synth_diag_expander_ancilla(g, spec, expander_cascade(g, 1, 2),
                                       verify=False)
    assert validate_connectivity(c, g) == []
    res, restored = verify_target(c, spec, m=m)
    assert res <= 1e-8 and restored
    mass = ancilla_off_mass(c, n, m)
    assert mass <= 1e-10
    worst_res = max(worst_res, res)
    worst_mass = max(worst_mass, mass)
    dep, _, _ = c.metrics()
    SYNTH_INSTANCES.append((g, "diag", n, m, dep))
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"\nPASS criterion 4: ancilla diagonals path/tree n in [3,5] and "
          f"K6 expander; worst residual {worst_res:.2e}, off-mass "
          f"{worst_mass:.2e} ({elapsed:.2f}s)")


def test_05_structural_counts():
    t0 = time.time()
    # multi-target CNOT, a `linear.ladder` of the target chain: exactly
    # 2n-1 CNOTs for n targets on a path
    for n in (1, 2, 5, 9):
        g = path_graph(n + 1)
        c = fanout(g, 1, list(range(2, n + 2)))
        assert sum(1 for name, _, _ in c.gates if name == "cx") \
            == 2 * n - 1
    # routed CNOT over distance d: at most 4d CNOTs
    g = path_graph(10)
    for d in range(1, 10):
        ncx = sum(1 for name, _, _ in route_cnot_gates(g, 1, 1 + d)
                  if name == "cx")
        assert ncx <= 4 * d
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 5: fanout=2n-1 CNOTs, routed CNOT <= 4d "
          f"({elapsed:.2f}s)")


def qsp_families(n, m, rng):
    size = n + m
    yield path_graph(size)
    if size % 2 == 0:
        yield grid_graph([size // 2, 2])
    yield tree_graph(2, n=size)
    yield tree_graph(3, n=size)
    yield star_graph(size)
    yield complete_graph(size)
    yield random_connected_graph(rng, size)


def test_06_ucg_qsp_gus():
    t0 = time.time()
    rng = np.random.default_rng(106)
    # 100 random UCGs, n <= 5, arbitrary targets
    worst_ucg = 0.0
    for trial in range(100):
        n = 1 + trial % 5
        target = 1 + int(rng.integers(0, n))
        V = UcgSpec(n, [random_su2(rng) for _ in range(1 << (n - 1))], target)
        c, _ = synth_ucg(complete_graph(n), V, 0, verify=False)
        res, ok = verify_target(c, V, m=0)
        assert res <= 1e-9 and ok
        worst_ucg = max(worst_ucg, res)
    # QSP on every family, n in [2,6], m in {0, 3n}
    worst_fid = 0.0
    qsp_count = 0
    for n in range(2, 7):
        for m in (0, 3 * n):
            for g in qsp_families(n, m, rng):
                v = random_state(rng, n)
                c, report = qsp_synthesize(g, StateSpec(n, v), m)
                assert report["violations"] == []
                assert report["residual"] <= 1e-9  # 1 - fidelity
                assert report["ancilla_restored"]
                worst_fid = max(worst_fid, report["residual"])
                _record(g, "qsp", n, m, report)
                qsp_count += 1
    # GUS on Haar-random unitaries
    worst_gus = 0.0
    for n in (2, 3, 4):
        u = haar_unitary(rng, 1 << n)
        assert len(unitary_to_ucgs(UnitarySpec(n, u))) == (1 << n) - 1
        c, report = gus_synthesize(complete_graph(n), UnitarySpec(n, u), 0)
        assert report["residual"] <= 1e-7
        assert report["ucg_count"] == (1 << n) - 1
        worst_gus = max(worst_gus, report["residual"])
        _record(complete_graph(n), "gus", n, 0, report)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"\nPASS criterion 6: 100 UCGs residual {worst_ucg:.2e}; "
          f"{qsp_count} QSP instances infidelity {worst_fid:.2e}; GUS "
          f"residual {worst_gus:.2e}, UCG count 2^n-1 ({elapsed:.2f}s)")


def test_07_unary_tree_suite():
    # state preparation on the full heap binary tree, 2^{n+1} - 1 vertices:
    # every vertex beyond the n inputs is ancilla (n + m <= 15, simulated)
    t0 = time.time()
    rng = np.random.default_rng(107)
    worst = 0.0
    depths = []
    for n in (1, 2, 3):
        m = (1 << (n + 1)) - 1 - n
        g = tree_graph(2, n=n + m)
        c, report = qsp_synthesize(g, StateSpec(n, random_state(rng, n)), m)
        assert report["violations"] == []
        assert report["residual"] <= 1e-9
        assert report["ancilla_restored"]
        worst = max(worst, report["residual"])
        depths.append(report["depth"])
        _record(g, "qsp", n, m, report)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 7: QSP on full binary trees n=1..3, depths "
          f"{depths}, infidelity {worst:.2e} ({elapsed:.2f}s)")


def test_08_transformation_suite():
    t0 = time.time()
    rng = np.random.default_rng(108)
    # disjointness audit on the specified brick wall
    bw = brickwall_graph(2, 2, 3, 5)
    grid, bridge = brickwall_embedding(bw)
    bridge.validate(bw)  # raises on any overlap / non-path
    assert len(bridge.classes) <= 4 * (5 - 2)
    # pullback with simulation on a small brick wall
    bw_s = brickwall_graph(1, 1, 3, 3)
    grid_s, bridge_s = brickwall_embedding(bw_s)
    assert bw_s.n <= 12
    n = 3
    v = random_state(rng, n)
    c, _ = qsp_synthesize(grid_s, StateSpec(n, v), grid_s.n - n)
    out = transform_circuit(c, bw_s, grid_s, bridge_s)
    assert validate_connectivity(out, bw_s) == []
    res, ok = verify_target(out, StateSpec(n, v), m=bw_s.n - n)
    assert res <= 1e-9 and ok
    # depth growth factor
    d_in = len(ref_lc.layers(c)[1])
    d_out = len(ref_lc.layers(out)[1])
    factor = 1 + 4 * bridge_s.c_prime * bridge_s.c
    assert d_out <= factor * d_in
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 8: brick-wall embedding disjoint, pullback "
          f"exact (residual {res:.2e}), depth factor {d_out / d_in:.2f} <= "
          f"{factor} ({elapsed:.2f}s)")


def figure_circuit():
    c = Circuit(6)
    for q in range(1, 7):
        c.add("h", (q,))
    for a, b in ((1, 2), (3, 4), (5, 6)):
        c.add("cx", (a, b))
    for q in (2, 3, 5, 6):
        c.add("h", (q,))
    for a, b in ((2, 3), (5, 6)):
        c.add("cx", (a, b))
    for q in (1, 2, 4, 5):
        c.add("h", (q,))
    for a, b in ((1, 2), (4, 5)):
        c.add("cx", (a, b))
    for q in range(1, 7):
        c.add("s", (q,))
    return c


def test_09_lightcone_and_bounds():
    t0 = time.time()
    # frozen reachable-set pattern of the worked 6-qubit example
    profile = lightcone_profile(figure_circuit(), 3)
    assert [len(s) for s in profile.sets][:7] == [4, 4, 2, 2, 2, 2, 3]
    assert profile.budget == 19
    # budget audit on fresh representative circuits
    rng = np.random.default_rng(109)
    n = 4
    c, _ = synth_diag_noancilla(path_graph(n),
                                DiagonalSpec(n, rng.uniform(0, 2 * np.pi,
                                                            size=1 << n)))
    budget, req, ok = lightcone_budget_check(c, "diag", n)
    assert ok and req == (1 << n) - 1
    c, _ = qsp_synthesize(star_graph(n), StateSpec(n, random_state(rng, n)),
                          0)
    budget, req, ok = lightcone_budget_check(c, "qsp", n)
    assert ok and req == (1 << n) - 1
    c, _ = gus_synthesize(complete_graph(3),
                          UnitarySpec(3, haar_unitary(rng, 8)), 0)
    budget, req, ok = lightcone_budget_check(c, "gus", 3)
    assert ok and req == 4**3 - 1
    # closed-form lower bound never exceeds any measured depth
    assert SYNTH_INSTANCES, "correctness criteria must run first"
    checked = 0
    for g, task, n_i, m_i, depth in SYNTH_INSTANCES:
        lb = depth_lower_bound(g, task, n_i, m_i)
        assert lb["max"] <= depth, (g.kind, task, n_i, m_i, lb, depth)
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 9: figure pattern reproduced, budgets >= "
          f"2^n-1 / 4^n-1, lower bound <= depth on {checked} instances "
          f"({elapsed:.2f}s)")


def test_10_scaling_trends():
    t0 = time.time()
    rng = np.random.default_rng(110)

    def check_ratio(pairs, label):
        base = dict(pairs)[8]
        for n, r in pairs:
            assert r <= 4 * base, (label, n, r, base)

    # diagonal on a bare path: depth*n/2^n stays within 4x its n=8 value
    pairs = []
    for n in range(2, 17):
        spec = DiagonalSpec(n, rng.uniform(0, 2 * np.pi, size=1 << n))
        c, report = synth_diag_noancilla(path_graph(n), spec, verify=False)
        pairs.append((n, report["depth"] * n / (1 << n)))
    check_ratio(pairs, "diag-path-m0")
    r1 = dict(pairs)
    # diagonal on a path with m = 3*2^{n/2} ancilla: depth/2^{n/2}
    pairs = []
    for n in range(4, 17, 2):
        m = 3 * (1 << (n // 2))
        spec = DiagonalSpec(n, rng.uniform(0, 2 * np.pi, size=1 << n))
        c, report = synth_diag_auto(path_graph(n + m), spec, m, verify=False)
        pairs.append((n, report["depth"] / (1 << (n // 2))))
    check_ratio(pairs, "diag-path-ancilla")
    r2 = dict(pairs)
    # state preparation on a star: depth/2^n
    pairs = []
    for n in range(2, 17):
        v = random_state(rng, n)
        c, report = qsp_synthesize(star_graph(n), StateSpec(n, v), 0,
                                   verify=False)
        pairs.append((n, report["depth"] / (1 << n)))
    check_ratio(pairs, "qsp-star")
    r3 = dict(pairs)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"\nPASS criterion 10: scaling ratios at n=16 vs n=8 -- "
          f"diag/path {r1[16] / r1[8]:.2f}x, ancilla {r2[16] / r2[8]:.2f}x, "
          f"qsp/star {r3[16] / r3[8]:.2f}x, all <= 4 ({elapsed:.2f}s)")
