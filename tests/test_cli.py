"""End-to-end command-line runs through temp files, exit codes included."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qgsynth import cli, diag
from qgsynth.cli import run_command


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def files(tmp_path):
    rng = np.random.default_rng(71)
    theta = rng.uniform(0, 2 * np.pi, size=8).tolist()
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    return {
        "path3": write(tmp_path / "path3.json", {"kind": "path", "n": 3}),
        "path10": write(tmp_path / "path10.json", {"kind": "path", "n": 10}),
        "angles": write(tmp_path / "angles.json", {"n": 3, "theta": theta}),
        "state": write(
            tmp_path / "state.json",
            {"n": 3, "re": v.real.tolist(), "im": v.imag.tolist()},
        ),
        "tmp": tmp_path,
    }


def test_synth_diag_roundtrip_and_verify(files, capsys):
    out = str(files["tmp"] / "c.json")
    rc = run_command(
        ["synth", "diag", "--graph", files["path3"], "--angles",
         files["angles"], "--out", out, "--verify"]
    )
    assert rc == 0
    rc = run_command(
        ["verify", "--graph", files["path3"], "--circuit", out,
         "--angles", files["angles"]]
    )
    assert rc == 0


def test_saved_circuit_counts_its_ancilla(files, capsys):
    # a diagonal on qubits 1..3 of path(11) with the other 8 as ancilla
    # saves "ancilla": 8 in its header, and the saved circuit verifies
    graph = write(files["tmp"] / "path11.json", {"kind": "path", "n": 11})
    out = str(files["tmp"] / "c.json")
    assert run_command(["synth", "diag", "--graph", graph, "--angles",
                        files["angles"], "-m", "8", "--out", out]) == 0
    with open(out) as fh:
        saved = json.load(fh)
    assert (saved["n"], saved["ancilla"]) == (11, 8)
    assert run_command(["verify", "--graph", graph, "--circuit", out,
                        "--angles", files["angles"]]) == 0


def test_synth_qsp_and_lightcone(files, capsys):
    out = str(files["tmp"] / "q.json")
    rc = run_command(
        ["synth", "qsp", "--graph", files["path3"], "--state",
         files["state"], "--out", out, "--verify"]
    )
    assert rc == 0
    rc = run_command(
        ["lightcone", "--circuit", out, "--task", "qsp", "-n", "3"]
    )
    assert rc == 0


@pytest.mark.parametrize("n", ["0", "-2", "9"])
def test_lightcone_refuses_n_outside_the_circuit(files, capsys, n):
    # a 3-qubit circuit has no budget for 0, -2 or 9 inputs
    out = str(files["tmp"] / "q.json")
    run_command(["synth", "qsp", "--graph", files["path3"], "--state",
                 files["state"], "--out", out])
    capsys.readouterr()
    rc = run_command(["lightcone", "--circuit", out, "--task", "qsp", "-n", n])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert f"error: n = {n} is not in 1..3" in captured.err


def test_bound_prints_terms(files, capsys):
    rc = run_command(
        ["bound", "--graph", files["path10"], "--task", "qsp", "-n", "10"]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "102.4" in text


def test_bound_refuses_more_inputs_than_vertices(files, capsys):
    # path(3) has no room for 10 inputs: no bound for m = -7
    rc = run_command(
        ["bound", "--graph", files["path3"], "--task", "qsp", "-n", "10"])
    assert rc == 2
    assert "n = 10 is not in 1..3" in capsys.readouterr().err
    # m is always |V| - n, so there is no flag for it
    with pytest.raises(SystemExit):
        run_command(["bound", "--graph", files["path10"], "--task", "qsp",
                     "-n", "10", "-m", "0"])


def test_verify_detects_wrong_target(files, tmp_path, capsys):
    out = str(tmp_path / "c.json")
    rc = run_command(
        ["synth", "diag", "--graph", files["path3"], "--angles",
         files["angles"], "--out", out]
    )
    assert rc == 0
    bad = write(tmp_path / "bad.json",
                {"n": 3, "theta": list(np.linspace(0.0, 3.0, 8))})
    rc = run_command(
        ["verify", "--graph", files["path3"], "--circuit", out,
         "--angles", bad]
    )
    assert rc == 1


def test_leaked_ancilla_fails_synth_and_verify_alike(files, monkeypatch,
                                                      capsys):
    # a residual within the threshold does not pass when the ancilla are
    # not restored, in `synth --verify` as in `verify`; every entry point
    # builds its report in diag._compile
    def leaking(fn):
        def run(*args, **kwargs):
            report = fn(*args, **kwargs)
            report["ancilla_restored"] = False
            return report
        return run

    out = str(files["tmp"] / "c.json")
    synth = ["synth", "diag", "--graph", files["path3"], "--angles",
             files["angles"], "--out", out, "--verify"]
    verify = ["verify", "--graph", files["path3"], "--circuit", out,
              "--angles", files["angles"]]
    assert run_command(synth) == 0
    assert run_command(verify) == 0
    for mod in (diag, cli):
        monkeypatch.setattr(mod, "assemble_report", leaking(mod.assemble_report))
    capsys.readouterr()
    assert run_command(synth) == 1
    assert json.loads(capsys.readouterr().out)["residual"] <= 1e-8
    assert run_command(verify) == 1
    assert json.loads(capsys.readouterr().out)["residual"] <= 1e-8


def test_bad_arguments_exit_2(files, capsys):
    with pytest.raises(SystemExit) as e:
        run_command(["synth", "diag", "--graph", files["path3"],
                     "--no-such-flag"])
    assert e.value.code == 2
    # missing file handled as an error, not a traceback
    rc = run_command(
        ["synth", "diag", "--graph", str(files["tmp"] / "missing.json"),
         "--angles", files["angles"]]
    )
    assert rc == 2


def test_strategy_with_ancilla_exits_2(files, capsys):
    # with ancilla the backend is chosen by depth: a strategy flag there
    # is an error, not silently ignored
    graph = write(files["tmp"] / "path8.json", {"kind": "path", "n": 8})
    angles = write(files["tmp"] / "a2.json", {"n": 2, "theta": [0, 1, 2, 3]})
    rc = run_command(["synth", "diag", "--graph", graph, "--angles", angles,
                      "--strategy", "grid", "-m", "6"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --strategy")


@pytest.mark.parametrize("strategy", ["path", "complete", "tree", "bogus"])
def test_strategy_outside_the_constructions_exits_2(files, strategy, capsys):
    rc = run_command(["synth", "diag", "--graph", files["path3"], "--angles",
                      files["angles"], "--strategy", strategy])
    assert rc == 2
    assert "unknown strategy" in capsys.readouterr().err
    assert run_command(["synth", "diag", "--graph", files["path3"],
                        "--angles", files["angles"], "--strategy",
                        "general"]) == 0


def test_verify_takes_the_ancilla_from_the_saved_circuit(files, capsys):
    # the circuit of `synth -m 8` has 3 + 8 qubits; verify without -m
    # takes the 8 trailing ones as ancilla
    graph = write(files["tmp"] / "path11.json", {"kind": "path", "n": 11})
    out = str(files["tmp"] / "c.json")
    assert run_command(["synth", "diag", "--graph", graph, "--angles",
                        files["angles"], "-m", "8", "--out", out]) == 0
    capsys.readouterr()
    assert run_command(["verify", "--graph", graph, "--circuit", out,
                        "--angles", files["angles"]]) == 0
    assert json.loads(capsys.readouterr().out)["residual"] <= 1e-8


def _complex_json(mat):
    mat = np.asarray(mat)
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


@pytest.mark.parametrize("what", ["gus", "ucg"])
def test_synth_verifies_with_idle_qubits_past_n_plus_m(files, what, capsys):
    # path(5) hosts n = 2 inputs and m = 1 ancilla with two qubits to
    # spare: the report counts them as ancilla too, and --verify passes
    rng = np.random.default_rng(72)
    graph = write(files["tmp"] / "path5.json", {"kind": "path", "n": 5})
    if what == "gus":
        q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        flag, obj = "--unitary", {"n": 2, **_complex_json(q)}
    else:
        branches = [np.linalg.qr(rng.normal(size=(2, 2)))[0] for _ in range(2)]
        flag, obj = "--target", {"n": 2, "branches": [_complex_json(b)
                                                      for b in branches]}
    spec = write(files["tmp"] / f"{what}.json", obj)
    assert run_command(["synth", what, "--graph", graph, flag, spec,
                        "-m", "1", "--verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["residual"] <= 1e-8 and report["ancilla_restored"] is True


@pytest.mark.parametrize("argv, flag", [
    (["synth", "diag"], "--angles"),
    (["synth", "qsp"], "--state"),
    (["synth", "ucg"], "--target"),
    (["synth", "gus"], "--unitary"),
    (["verify", "--circuit", "c.json"], "--angles, --state, --unitary"),
])
def test_missing_input_flag_exits_2(files, argv, flag, capsys):
    # an error line naming the flag, not a traceback
    assert run_command(argv + ["--graph", files["path3"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: missing ") and flag in err


def test_bench_is_deterministic(files, capsys):
    out1 = files["tmp"] / "b1.csv"
    out2 = files["tmp"] / "b2.csv"
    args = ["bench", "--task", "diag", "--graph-kind", "path",
            "--n-start", "2", "--n-stop", "4", "--m-rule", "zero",
            "--seed", "5"]
    assert run_command(args + ["--out", str(out1)]) == 0
    assert run_command(args + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().splitlines()
    assert len(lines) == 4  # header + n in {2,3,4}


def test_graph_info(files, capsys):
    assert run_command(["graph", "info", "--graph", files["path10"]]) == 0
    text = capsys.readouterr().out
    assert "path" in text


# CSVs written by `qgsynth bench` (seed 5); ratio is depth / bound_max
_BENCH_CSV = {
    "diag": ["task,graph_kind,n,m,depth,size,two_qubit,bound_max,ratio,seed",
             "diag,path,2,6,4,5,2,2.0,2.0,5",
             "diag,path,3,9,16,19,12,3.0,5.333333,5",
             "diag,path,4,12,42,53,38,4.0,10.5,5",
             "diag,path,5,15,116,151,120,5.656854,20.506097,5"],
    "qsp": ["task,graph_kind,n,m,depth,size,two_qubit,bound_max,ratio,seed",
            "qsp,path,2,6,12,15,4,2.0,6.0,5",
            "qsp,path,3,9,39,52,26,3.0,13.0,5",
            "qsp,path,4,12,99,135,82,4.0,24.75,5",
            "qsp,path,5,15,284,386,282,5.656854,50.204581,5"],
}


@pytest.mark.parametrize("task", ["diag", "qsp"])
def test_bench_counts_without_verifying(task, tmp_path, monkeypatch, capsys):
    from qgsynth import sim

    def no_verify(*args, **kwargs):
        raise AssertionError("bench must not verify")

    monkeypatch.setattr(sim, "verify_target", no_verify)
    out = tmp_path / "b.csv"
    assert run_command(["bench", "--task", task, "--graph-kind", "path",
                        "--n-start", "2", "--n-stop", "5", "--m-rule", "3n",
                        "--seed", "5", "--out", str(out)]) == 0
    assert out.read_bytes() == ("\r\n".join(_BENCH_CSV[task]) + "\r\n").encode()



def _out_of_range_calls():
    """(name, call(m)) of every entry point that takes an ancilla count,
    each on path(3) with n = 2 (synth_ucg on path(2), qsp with n = 4)."""
    from qgsynth.diag_ancilla import synth_diag_ancilla, synth_diag_auto
    from qgsynth.graphs import path_graph
    from qgsynth.states import UcgSpec, gus_synthesize, qsp_synthesize, synth_ucg

    return {
        "synth_diag_auto": lambda m: synth_diag_auto(path_graph(3), np.zeros(4), m),
        "synth_diag_ancilla": lambda m: synth_diag_ancilla(path_graph(3), np.zeros(4), m),
        "gus_synthesize": lambda m: gus_synthesize(path_graph(3), np.eye(4), m),
        "synth_ucg": lambda m: synth_ucg(path_graph(2), UcgSpec(2, [np.eye(2)] * 2), m),
        "qsp_synthesize": lambda m: qsp_synthesize(path_graph(3), np.full(16, 0.25), m),
    }


@pytest.mark.parametrize("call, m", [
    ("synth_diag_auto", -1), ("synth_diag_auto", 2),
    ("synth_diag_ancilla", -1), ("synth_diag_ancilla", 2),
    ("gus_synthesize", -1), ("gus_synthesize", 5),
    ("synth_ucg", -1), ("synth_ucg", 1),
    ("qsp_synthesize", -1), ("cli", -1), ("cli", 2),
])
def test_ancilla_count_out_of_range_is_refused(call, m, files, capsys):
    # 0 <= m <= g.n - n is checked before anything is built: a clean
    # ValueError naming m, and exit code 2 from the command line
    if call == "cli":
        angles = write(files["tmp"] / "a2.json", {"n": 2, "theta": [0, 1, 2, 3]})
        assert run_command(["synth", "diag", "--graph", files["path3"],
                            "--angles", angles, "-m", str(m)]) == 2
        assert f"m = {m} ancilla" in capsys.readouterr().err
        return
    with pytest.raises(ValueError, match=f"m = {m} ancilla"):
        _out_of_range_calls()[call](m)


def test_import_loads_neither_networkx_nor_scipy():
    # a fresh interpreter: the package and its CLI load numpy alone, and
    # scipy's ?uncsd binds on the first demultiplexing
    code = """if True:
        import sys
        import numpy as np
        import qgsynth, qgsynth.cli
        assert not {"networkx", "scipy"} & set(sys.modules), sorted(sys.modules)
        U = np.linalg.qr(np.arange(16).reshape(4, 4) + 1j * np.eye(4))[0]
        c, report = qgsynth.gus_synthesize(qgsynth.path_graph(2), U, 0)
        assert report["residual"] < 1e-9 and report["ancilla_restored"]
        assert "scipy" in sys.modules
    """
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
