"""No-ancilla diagonal synthesis against a dense diagonal oracle."""
import json

import numpy as np
import pytest

from qgsynth.circuit import circuit_to_json
from qgsynth.diag import (
    DiagonalSpec,
    _dispatch,
    _expander_split,
    _path_split,
    _tree2_split,
    synth_diag_noancilla,
)
from qgsynth.diag_ancilla import synth_diag_auto
from qgsynth.gray import solve_phase_coefficients
from qgsynth.graphs import (
    InvalidParameters,
    build_graph,
    complete_graph,
    explicit_graph,
    grid_graph,
    path_graph,
    star_graph,
    tree_graph,
)
from qgsynth.sim import simulate


def random_spec(rng, n):
    return DiagonalSpec(n, rng.uniform(0, 2 * np.pi, size=1 << n))


def check_diag(g, spec, strategy="auto"):
    c, report = synth_diag_noancilla(g, spec, strategy=strategy)
    assert report["violations"] == []
    # independent dense oracle (not verify_target): full unitary must be
    # diagonal with the requested relative phases
    u = simulate(c, mode="unitary")
    d = np.diag(u)
    assert np.max(np.abs(u - np.diag(d))) < 1e-9
    rel = np.angle(d / d[0])
    want = np.mod(spec.theta - spec.theta[0] + np.pi, 2 * np.pi) - np.pi
    err = np.abs(np.mod(rel - want + np.pi, 2 * np.pi) - np.pi)
    assert np.max(err) < 1e-9
    return c, report


@pytest.mark.parametrize(
    "make_g",
    [
        lambda n: path_graph(n),
        lambda n: complete_graph(n),
        lambda n: star_graph(n),
        lambda n: tree_graph(2, n=n),
    ],
)
def test_families_match_dense_oracle(make_g):
    rng = np.random.default_rng(21)
    for n in (2, 3, 4, 5):
        check_diag(make_g(n), random_spec(rng, n))


def test_grid_matches_dense_oracle():
    rng = np.random.default_rng(22)
    g = grid_graph([3, 2])
    check_diag(g, random_spec(rng, 6))


def test_general_connected_graph():
    rng = np.random.default_rng(23)
    # 5-cycle plus a chord: neither path, tree, star, nor complete
    g = build_graph(
        {"kind": "explicit", "n": 5,
         "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [2, 5]]}
    )
    check_diag(g, random_spec(rng, 5))


@pytest.mark.parametrize("name", ["path", "grid", "tree", "star", "complete",
                                  "tree2", "Auto", ""])
def test_strategy_names_a_construction(name):
    # "auto", "general" and "expander" are the constructions; a graph
    # family's name is not a strategy, even on its own family
    rng = np.random.default_rng(24)
    for g in (star_graph(4), path_graph(4), complete_graph(4)):
        with pytest.raises(ValueError, match="unknown strategy"):
            synth_diag_noancilla(g, random_spec(rng, 4), strategy=name)


@pytest.mark.parametrize("theta", [np.zeros(4), np.arange(4.0)], ids=["zeros", "ramp"])
def test_noancilla_takes_a_bare_angle_array(theta):
    # an array of 2^n angles stands for its DiagonalSpec, as in synth_diag_auto
    c, report = synth_diag_noancilla(path_graph(2), theta)
    want_c, want_r = synth_diag_noancilla(path_graph(2), DiagonalSpec(2, theta))
    assert c.gates == want_c.gates and report == want_r
    assert report["residual"] <= 1e-8


@pytest.mark.parametrize("n", range(1, 11))
def test_auto_on_a_path_is_the_general_split(n):
    # a path has no split of its own: auto runs the walk while the path is
    # complete (depth 4 at n = 2, below both splits) and the general split
    # from n = 3 on
    g = path_graph(n)
    spec = random_spec(np.random.default_rng(30 + n), n)
    c, report = synth_diag_noancilla(g, spec)
    assert report["residual"] <= 1e-8
    if n <= 2:
        assert report["backend"] == "noancilla-complete"
        assert report["depth"] == [1, 4][n - 1]
        return
    want_c, want_report = synth_diag_noancilla(g, spec, "general")
    assert c.gates == want_c.gates
    assert report == {**want_report, "backend": "noancilla-general",
                      "decision": "noancilla-general", "core_backend": "general"}


@pytest.mark.parametrize("dims", [[3, 3], [2, 3], [1, 4]])
def test_noancilla_auto_is_the_auto_template(dims):
    # one chooser: the no-ancilla default is synth_diag_auto with m = 0, in
    # circuit and report, and keeps the winner's cover size ell
    g = grid_graph(dims)
    spec = random_spec(np.random.default_rng(sum(dims)), g.n)
    c, report = synth_diag_noancilla(g, spec)
    want_c, want_report = synth_diag_auto(grid_graph(dims), spec, 0)
    assert json.dumps(circuit_to_json(c)) == json.dumps(circuit_to_json(want_c))
    assert list(report.items()) == list(want_report.items())
    core = report["core_backend"]
    assert report["ell"] == _dispatch(grid_graph(dims), core).extra["ell"]
    if dims == [3, 3]:
        # the general split wins; the grid split alone is 2,364 deep
        assert (core, report["depth"], report["ell"]) == ("general", 1380, 4)
        assert _dispatch(g, "grid").scan(g)[0] == 2364


def test_size_stays_within_linear_blowup():
    rng = np.random.default_rng(25)
    for n in (3, 5, 7):
        g = path_graph(n)
        c, report = synth_diag_noancilla(g, random_spec(rng, n))
        assert report["size"] <= 16 * (1 << n)


def test_theta_normalization_is_global_phase_only():
    rng = np.random.default_rng(26)
    theta = rng.uniform(0, 2 * np.pi, size=8)
    a = DiagonalSpec(3, theta)
    b = DiagonalSpec(3, theta + 1.7)
    assert np.max(np.abs(np.asarray(a.theta) - np.asarray(b.theta))) < 1e-12


def test_walsh_coefficients_reconstruct_angles():
    # independent oracle: brute-force parity expansion
    rng = np.random.default_rng(27)
    n = 4
    theta = rng.uniform(-np.pi, np.pi, size=1 << n)
    theta[0] = 0.0
    alpha = solve_phase_coefficients(theta)
    rebuilt = np.zeros(1 << n)
    for s in range(1, 1 << n):
        for x in range(1 << n):
            if (x & s).bit_count() % 2 == 1:
                rebuilt[x] += alpha[s]
    assert np.max(np.abs(rebuilt - theta)) < 1e-9


# 8-vertex 4-regular circulant: v joined to v +- 1 and v +- 2 (mod 8)
CIRCULANT = explicit_graph(8, [(v, (v + d - 1) % 8 + 1)
                               for v in range(1, 9) for d in (1, 2)])


@pytest.mark.parametrize("g", [complete_graph(6), complete_graph(8), CIRCULANT],
                         ids=["K6", "K8", "circulant8"])
def test_expander_strategy_is_exact(g):
    rng = np.random.default_rng(28)
    _, report = check_diag(g, random_spec(rng, g.n), strategy="expander")
    assert report["backend"] == "expander"
    assert report["ell"] >= 1


def test_expander_strategy_needs_three_vertices():
    rng = np.random.default_rng(29)
    with pytest.raises(InvalidParameters):
        synth_diag_noancilla(complete_graph(2), random_spec(rng, 2),
                             strategy="expander")


def test_path_split_registers():
    # tau tail controls after r_t interleaved control/target pairs
    for n in range(2, 601):
        split = _path_split(list(range(1, n + 1)))
        tau = split.r_c - split.r_t
        assert tau >= 0 and split.r_t >= 1 and 2 * split.r_t + tau == n
        assert sorted(split.cverts + split.tverts) == list(range(1, n + 1))


def test_tree2_split_registers():
    # no split below a full third level; above it both registers are used
    for n in range(1, 7):
        assert _tree2_split(tree_graph(2, n=n)) is None
    for n in range(7, 1101):
        split = _tree2_split(tree_graph(2, n=n))
        assert split.r_c >= 1 and split.r_t >= 1, n
        assert sorted(split.cverts + split.tverts) == list(range(1, n + 1))
        assert 1 not in split.tverts


@pytest.mark.parametrize("g", [complete_graph(n) for n in range(3, 15)]
                         + [CIRCULANT], ids=lambda g: f"{g.kind}{g.n}")
def test_expander_split_registers(g):
    split, casc = _expander_split(g)
    assert split.r_c >= 1 and split.r_t >= 1
    assert sorted(split.cverts + split.tverts) == list(range(1, g.n + 1))
    assert split.tverts == list(casc.sets[-1])
