"""End-to-end command-line runs through temp files, exit codes included."""
import json

import numpy as np
import pytest

from qgsynth import cli
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


def test_bound_prints_terms(files, capsys):
    rc = run_command(
        ["bound", "--graph", files["path10"], "--task", "qsp", "-n", "10",
         "-m", "0"]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "102.4" in text


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
    # not restored, in `synth --verify` as in `verify`
    def leaking(fn):
        def run(*args, **kwargs):
            out = fn(*args, **kwargs)
            report = out if isinstance(out, dict) else out[-1]
            report["ancilla_restored"] = False
            return out
        return run

    out = str(files["tmp"] / "c.json")
    synth = ["synth", "diag", "--graph", files["path3"], "--angles",
             files["angles"], "--out", out, "--verify"]
    verify = ["verify", "--graph", files["path3"], "--circuit", out,
              "--angles", files["angles"]]
    assert run_command(synth) == 0
    assert run_command(verify) == 0
    for name in ("synth_diag_auto", "synth_diag_noancilla", "assemble_report"):
        monkeypatch.setattr(cli, name, leaking(getattr(cli, name)))
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
             "diag,path,2,6,5,5,2,2.0,2.5,5",
             "diag,path,3,9,16,19,12,3.0,5.333333,5",
             "diag,path,4,12,48,55,40,4.0,12.0,5",
             "diag,path,5,15,122,169,138,5.656854,21.566757,5"],
    "qsp": ["task,graph_kind,n,m,depth,size,two_qubit,bound_max,ratio,seed",
            "qsp,path,2,6,13,15,4,2.0,6.5,5",
            "qsp,path,3,9,39,52,26,3.0,13.0,5",
            "qsp,path,4,12,118,147,94,4.0,29.5,5",
            "qsp,path,5,15,309,434,330,5.656854,54.623999,5"],
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
