"""Command-line frontend: synthesis, verification, bounds, lightcone audit,
brick-wall transformation, and the scaling benchmark harness.

File formats: graphs use the JSON descriptors of graphs.build_graph; angle
files are {"n", "theta": [...]}; state files {"n", "re": [...], "im": [...]};
unitary files {"n", "re": [[...]], "im": [[...]]} row-major; UCG files
{"n", "target", "branches": [{"re": [[..]], "im": [[..]]}, ...]}; circuits
use the gate-list JSON of circuit_to_json.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .bounds import (brickwall_embedding, depth_lower_bound,
                     lightcone_budget_check, transform_circuit)
from .circuit import circuit_from_json, circuit_to_json
from .diag import DiagonalSpec, synth_diag_noancilla
from .diag_ancilla import synth_diag_auto
from .graphs import build_graph, graph_to_json, path_graph, \
    star_graph, tree_graph
from .sim import assemble_report
from .states import (StateSpec, UcgSpec, UnitarySpec, gus_synthesize,
                     qsp_synthesize, synth_ucg)

VERIFY_THRESHOLD = 1e-8


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_graph(path):
    return build_graph(_load_json(path))


def _complex(obj):
    """obj["re"] + i obj["im"], the imaginary part zero when absent."""
    re = np.asarray(obj["re"], dtype=float)
    return re + 1j * np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)


def _verified(report):
    """A report passes: no off-graph gate, a simulated residual within
    VERIFY_THRESHOLD and the ancilla restored."""
    res = report["residual"]
    return (not report["violations"] and isinstance(res, float)
            and res <= VERIFY_THRESHOLD and bool(report["ancilla_restored"]))


def _emit(args, circuit, report):
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(circuit_to_json(circuit), fh)
    print(json.dumps(report, default=str, indent=2))
    if getattr(args, "verify", False) and not _verified(report):
        return 1
    return 0


# synth target -> (file flag, spec of the file's JSON, entry point(g, spec, m))
_SYNTH = {
    "diag": ("angles", lambda o: DiagonalSpec(int(o["n"]), o["theta"]),
             synth_diag_auto),
    "qsp": ("state", lambda o: StateSpec(int(o["n"]), _complex(o)),
            qsp_synthesize),
    "ucg": ("target",
            lambda o: UcgSpec(int(o["n"]), [_complex(b) for b in o["branches"]],
                              int(o.get("target", 0))),
            synth_ucg),
    "gus": ("unitary", lambda o: UnitarySpec(int(o["n"]), _complex(o)),
            gus_synthesize),
}


def _cmd_synth(args):
    g = _load_graph(args.graph)
    flag, spec_of, synth = _SYNTH[args.what]
    path = getattr(args, flag)
    if path is None:
        raise ValueError(f"missing --{flag}")
    spec = spec_of(_load_json(path))
    if args.what == "diag" and args.strategy:
        if args.m:
            raise ValueError("--strategy needs -m 0: with ancilla the "
                             "backend is chosen by depth")
        return _emit(args, *synth_diag_noancilla(g, spec, args.strategy))
    return _emit(args, *synth(g, spec, args.m))


def _cmd_verify(args):
    # the first of --angles, --state, --unitary given (verify has no --target)
    target = next((spec_of(_load_json(path))
                   for flag, spec_of, _ in _SYNTH.values()
                   if (path := getattr(args, flag, None))), None)
    if target is None:
        raise ValueError("missing one of --angles, --state, --unitary")
    g = _load_graph(args.graph)
    c = circuit_from_json(_load_json(args.circuit))
    rep = assemble_report(c, g, target=target, m=args.m, backend="verify")
    print(json.dumps(rep, default=str, indent=2))
    return 0 if _verified(rep) else 1


def _cmd_bound(args):
    g = _load_graph(args.graph)
    rep = depth_lower_bound(g, args.task, args.n, g.n - args.n)
    print(json.dumps({"terms": rep["terms"], "max": rep["max"],
                      "nu": rep["nu"], "note": rep["note"]}, indent=2))
    return 0


def _cmd_lightcone(args):
    c = circuit_from_json(_load_json(args.circuit))
    budget, required, ok = lightcone_budget_check(c, args.task, args.n)
    print(json.dumps({"budget": budget, "required": required, "pass": ok,
                      "note": "necessary condition, constant 1"}))
    return 0 if ok else 1


def _cmd_transform(args):
    bw = _load_graph(args.graph)
    grid, _, bridge = brickwall_embedding(bw)
    c = circuit_from_json(_load_json(args.circuit))
    if c.n != grid.n:
        print("circuit size does not match the embedded grid", file=sys.stderr)
        return 2
    out = transform_circuit(c, bw, grid, bridge)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(circuit_to_json(out), fh)
    d, s, t = out.metrics()
    print(json.dumps({"n": out.n, "depth": d, "size": s, "two_qubit": t,
                      "classes": bridge.c, "c_prime": bridge.c_prime}))
    return 0


def _bench_graph(kind, n, m):
    if kind == "path":
        return path_graph(n + m)
    if kind == "star":
        return star_graph(n + m)
    if kind == "tree":
        return tree_graph(2, n=n + m)
    raise ValueError(f"bench does not support graph kind {kind!r}")


def _bench_m(rule, n):
    if rule == "zero":
        return 0
    if rule == "3n":
        return 3 * n
    if rule == "3sqrt":
        return 3 * (1 << (n // 2))
    raise ValueError(f"unknown m rule {rule!r}")


def bench_sweep(task, graph_kind, n_range, m_rule, out, seed=0):
    """Counting-only scaling sweep; one row per n, CSV written to `out`.
    Counts come from the entry point's report; `ratio` is depth divided by
    depth_lower_bound(...)["max"]."""
    rng = np.random.default_rng(seed)
    rows = []
    for n in n_range:
        m = _bench_m(m_rule, n)
        g = _bench_graph(graph_kind, n, m)
        if task == "diag":
            spec = DiagonalSpec(n, rng.uniform(0, 2 * math.pi, size=1 << n))
            _, rep = synth_diag_auto(g, spec, m, verify=False)
        elif task == "qsp":
            amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amp /= np.linalg.norm(amp)
            _, rep = qsp_synthesize(g, StateSpec(n, amp), m, verify=False)
        else:
            raise ValueError("bench supports tasks diag and qsp")
        bound = depth_lower_bound(g, task, n, m)["max"]
        rows.append({
            "task": task, "graph_kind": graph_kind, "n": n, "m": m,
            "depth": rep["depth"], "size": rep["size"],
            "two_qubit": rep["two_qubit"], "bound_max": round(bound, 6),
            "ratio": round(rep["depth"] / bound, 6),
            "seed": seed,
        })
    fields = ["task", "graph_kind", "n", "m", "depth", "size", "two_qubit",
              "bound_max", "ratio", "seed"]
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in sorted(rows, key=lambda r: (r["n"], r["m"])):
            writer.writerow(row)
    return rows


def _cmd_bench(args):
    rows = bench_sweep(args.task, args.graph_kind,
                       range(args.n_start, args.n_stop + 1), args.m_rule,
                       args.out, seed=args.seed)
    if rows:
        ratios = [r["ratio"] for r in rows]
        print(f"{len(rows)} rows; ratio min {min(ratios)} max {max(ratios)}")
    else:
        print("0 rows")
    return 0


def _cmd_graph_info(args):
    g = _load_graph(args.graph)
    print(json.dumps({"kind": g.kind, "n": g.n, "edges": len(g.edges),
                      "params": graph_to_json(g)}))
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="qgsynth")
    sub = p.add_subparsers(dest="cmd", required=True)

    sy = sub.add_parser("synth", help="synthesize a circuit")
    sy.add_argument("what", choices=["diag", "qsp", "ucg", "gus"])
    sy.add_argument("--graph", required=True)
    sy.add_argument("--angles")
    sy.add_argument("--state")
    sy.add_argument("--unitary")
    sy.add_argument("--target")
    sy.add_argument("-m", type=int, default=0)
    sy.add_argument("--strategy")
    sy.add_argument("--out")
    sy.add_argument("--verify", action="store_true")
    sy.set_defaults(func=_cmd_synth)

    ve = sub.add_parser("verify", help="verify a circuit file")
    ve.add_argument("--graph", required=True)
    ve.add_argument("--circuit", required=True)
    ve.add_argument("--angles")
    ve.add_argument("--state")
    ve.add_argument("--unitary")
    ve.add_argument("-m", type=int)
    ve.set_defaults(func=_cmd_verify)

    bo = sub.add_parser("bound", help="depth lower bound terms")
    bo.add_argument("--graph", required=True)
    bo.add_argument("--task", choices=["qsp", "diag", "gus"], required=True)
    bo.add_argument("-n", type=int, required=True)
    bo.set_defaults(func=_cmd_bound)

    li = sub.add_parser("lightcone", help="reachable-set budget audit")
    li.add_argument("--circuit", required=True)
    li.add_argument("--task", choices=["qsp", "diag", "gus"], required=True)
    li.add_argument("-n", type=int, required=True)
    li.set_defaults(func=_cmd_lightcone)

    tr = sub.add_parser("transform", help="graph-to-graph transformation")
    tr.add_argument("what", choices=["brickwall"])
    tr.add_argument("--graph", required=True, help="brick-wall graph file")
    tr.add_argument("--circuit", required=True, help="grid circuit file")
    tr.add_argument("--out")
    tr.set_defaults(func=_cmd_transform)

    be = sub.add_parser("bench", help="counting-only scaling sweep")
    be.add_argument("--task", choices=["diag", "qsp"], required=True)
    be.add_argument("--graph-kind", choices=["path", "star", "tree"],
                    required=True)
    be.add_argument("--n-start", type=int, required=True)
    be.add_argument("--n-stop", type=int, required=True)
    be.add_argument("--m-rule", choices=["zero", "3n", "3sqrt"],
                    default="zero")
    be.add_argument("--out", required=True)
    be.add_argument("--seed", type=int, default=0)
    be.set_defaults(func=_cmd_bench)

    gr = sub.add_parser("graph", help="graph utilities")
    gr.add_argument("what", choices=["info"])
    gr.add_argument("--graph", required=True)
    gr.set_defaults(func=_cmd_graph_info)
    return p


def run_command(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
