"""The CI depth gate, `.github/depth_gate.py`: a request that got deeper, or
that compiled at base and not at head, fails the pair, and so does a pair
of rows files that list different requests; a CNOT rise is only a note."""
import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / ".github" / "depth_gate.py"
_spec = importlib.util.spec_from_file_location("depth_gate", _PATH)
depth_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(depth_gate)


def _row(graph, depth, cx, task="diag", n=3, m=0):
    return {"task": task, "graph": graph, "n": n, "m": m,
            "depth": depth, "cx": cx}


def _compare(tmp_path, base, head):
    paths = []
    for side, rows in (("base", base), ("head", head)):
        path = tmp_path / f"{side}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        paths.append(str(path))
    return depth_gate.compare(*paths), paths


BASE = [_row("path(5)", 16, 12), _row("star(6)", 40, 30, task="qsp", n=4, m=2),
        _row("grid(2x3)", None, None)]


def test_equal_rows_pass(tmp_path):
    (failures, notes), paths = _compare(tmp_path, BASE, BASE)
    assert (failures, notes) == ([], [])
    assert depth_gate.main(paths) == 0


@pytest.mark.parametrize("head, says", [
    ([_row("path(5)", 17, 12)] + BASE[1:],
     "request 0: diag path(5) n=3 m=0 depth 16 -> 17"),
    ([BASE[0], _row("star(6)", None, None, task="qsp", n=4, m=2), BASE[2]],
     "request 1: qsp star(6) n=4 m=2 compiled at base, not at head"),
    (BASE[:2], "not the requests of"),
    ([BASE[1], BASE[0], BASE[2]], "not the requests of"),
    (BASE[:2] + [_row("grid(2x3)", None, None, m=1)], "not the requests of"),
], ids=["deeper", "no-longer-compiles", "fewer-rows", "reordered", "other-m"])
def test_a_regression_fails_the_gate(tmp_path, head, says, capsys):
    (failures, notes), paths = _compare(tmp_path, BASE, head)
    assert len(failures) == 1 and says in failures[0] and notes == []
    assert depth_gate.main(paths) == 1
    assert "1 regressed" in capsys.readouterr().out


def test_a_cnot_rise_is_only_a_note(tmp_path, capsys):
    # a request that compiles at head and not at base, and a shallower one
    # with as many CNOTs, are not listed at all
    head = [_row("path(5)", 16, 13), _row("star(6)", 39, 30, task="qsp", n=4, m=2),
            _row("grid(2x3)", 20, 18)]
    (failures, notes), paths = _compare(tmp_path, BASE, head)
    assert failures == []
    assert notes == ["request 0: diag path(5) n=3 m=0 cx 12 -> 13"]
    assert depth_gate.main(paths) == 0
    assert "0 regressed, 1 gained CNOTs" in capsys.readouterr().out
