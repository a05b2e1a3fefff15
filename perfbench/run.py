#!/usr/bin/env python3
"""qgsynth benchmark: one seeded workload, closed loop, one process.

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 40 --trace 0

Run from the repository root; qgsynth is imported from ./src.  Set-up builds
every graph, input and depth lower bound, three times.  Then whole passes
(every request of the workload once) run for about --seconds, at least
three of them.  In the first pass each circuit, once its request is timed,
is serialized with `circuit_to_json` and checked by the independent oracle
in oracle.py; in later passes it must come out identical.  One row per
request (task, graph, depth, CNOTs, bound ratio, seconds, SHA-256 of the
circuit JSON, failures) goes to perfbench/out/.  Time metrics are scaled to
a reference speed (see REFERENCE_S).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics.  Metric names and units are
those of BENCHMARK.json.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import re
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracer import SPAN_NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
SETUPS = 3
CHUNK = 4096  # gates serialized and checked at a time
SEP = (",", ":")
# task -> (qgsynth module, entry point)
ENTRY = {
    "diag": ("diag_ancilla", "synth_diag_auto"),
    "qsp": ("states", "qsp_synthesize"),
    "gus": ("states", "gus_synthesize"),
}


# Reference speed.  The host moves this kind of shared VM between a fast and
# a slow state for tens of seconds at a time, which stretches every timing
# by up to 1.5x.  A fixed pure-Python workload is timed before the set-up,
# between passes and after the last one; each time metric is scaled by
# REFERENCE_S over the mean reference time around it.  That cancels about
# half of the swing in measured runs.  The raw medians are printed beside
# the scaled ones.
REFERENCE_S = 0.03  # the reference workload's time on the machine the bounds come from
_REF_TABLE = {(i, i & 7): i for i in range(64)}
_REF_GATES = [("cx", (i & 15, (i + 1) & 15), None) for i in range(256)]


def reference_time():
    """Seconds a fixed workload takes: tuple, dict and list operations like
    the synthesis code's, no imports, with the cyclic collector off so the
    program's heap does not change the figure."""
    gc.disable()
    try:
        t0 = perf_counter()
        acc = 0
        for _ in range(400):
            out = []
            for name, qs, p in _REF_GATES:
                a, b = qs
                acc += _REF_TABLE.get((a, b & 7), 1) ^ (a << 1)
                out.append((name, (b, a), p))
        return perf_counter() - t0
    finally:
        gc.enable()


def load_program():
    """Import qgsynth from the checkout's src/ and the benchmark modules;
    returns the seconds the imports took."""
    src = ROOT / "src"
    if not (src / "qgsynth" / "__init__.py").is_file():
        sys.exit(f"qgsynth sources not found under {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import qgsynth  # numpy, scipy.linalg, networkx
    import workloads  # noqa: F401  (scipy.stats)
    elapsed = perf_counter() - t0
    if Path(qgsynth.__file__).resolve().parent != src / "qgsynth":
        sys.exit(f"imported qgsynth from {qgsynth.__file__}, not from {src}")
    return elapsed


def call(req):
    """One entry-point call, looked up by name so a tracer can rebind it;
    returns (circuit, report)."""
    mod, name = ENTRY[req.task]
    fn = getattr(sys.modules[f"qgsynth.{mod}"], name)
    if req.task == "gus":
        return fn(req.graph, req.spec, req.m)
    return fn(req.graph, req.spec, req.m, verify=req.verify)


def run_pass(reqs, inspect):
    """Every request once, timing only the call; `inspect(i, result)` gets
    (circuit, report) or the exception.  Returns seconds per request."""
    gc.collect()
    lat = []
    for i, req in enumerate(reqs):
        t0 = perf_counter()
        try:
            result = call(req)
        except Exception as exc:  # a failed request: recorded, the pass goes on
            result = exc
        lat.append(perf_counter() - t0)
        inspect(i, result)
        del result
    return lat


# -- correctness ------------------------------------------------------------

def serialized(circ):
    """`circuit_to_json(circ)` dumped with compact separators, as (bytes,
    gate dicts) pieces of CHUNK gates, so a large circuit is never held as
    JSON all at once; the pieces concatenate to the whole dump."""
    from qgsynth.circuit import Circuit, circuit_to_json

    head = json.dumps(circuit_to_json(Circuit(circ.n, circ.ancilla)), separators=SEP)
    if not head.endswith('"gates":[]}'):
        raise ValueError(f"unexpected circuit JSON layout {head!r}")
    yield head[:-2].encode(), []
    for start in range(0, len(circ.gates), CHUNK):
        part = Circuit(circ.n, circ.ancilla, circ.gates[start:start + CHUNK])
        gates = circuit_to_json(part)["gates"]
        text = json.dumps(gates, separators=SEP)[1:-1]
        yield (("," if start else "") + text).encode(), gates
    yield b"]}", []


def fingerprint(result):
    """What must repeat in every pass: the exception class, or a hash of
    the gate list."""
    if isinstance(result, Exception):
        return ("raise", type(result).__name__)
    try:
        return ("ok", hash(tuple(result[0].gates)))
    except TypeError:  # unhashable gate parameter: not serializable either
        return ("ok", None)


def _stage_family(name):
    return re.sub(r"_\d+$", "", name)


def check_request(req, result):
    """Check one result.  Returns (row, reasons, wrong): reasons label each
    failure; wrong is True when the oracle rejects the circuit itself."""
    import oracle  # not at the top: numpy's import belongs to set-up

    row = {"task": req.task, "graph": req.graph_label, "kind": req.kind,
           "n": req.n, "m": req.m, "verify": req.verify}
    if isinstance(result, Exception):
        row["error"] = f"{type(result).__name__}: {result}"
        return row, [type(result).__name__], False
    circ, rep = result
    reasons = []

    n_in = 0 if req.task == "qsp" else req.n
    audit = oracle.Audit(circ.n, n_in, req.graph.edges)
    digest = hashlib.sha256()
    try:
        for blob, gates in serialized(circ):
            digest.update(blob)
            audit.feed(gates)
        if req.task == "diag":
            residual, anc_ok = audit.check_diagonal(req.target)
        elif req.task == "qsp":
            residual, anc_ok = audit.check_columns(req.target[:, None], req.n)
        else:
            residual, anc_ok = audit.check_columns(req.target, req.n)
    except ValueError as exc:  # not serializable, unknown gate, too wide to simulate
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row, ["unverified"], True
    row["sha256"] = digest.hexdigest()

    depth, size, cx = audit.schedule.counts
    row.update(depth=depth, size=size, cx=cx, bound=req.bound,
               bound_ratio=depth / req.bound)
    if (rep["depth"], rep["size"], rep["two_qubit"]) != (depth, size, cx):
        reasons.append("report-mismatch")
    if audit.off_graph or rep["violations"]:
        reasons.append("violation")
    if rep.get("ancilla_restored") is False:
        reasons.append("ancilla")
    reported = rep.get("residual")
    row.update(residual_reported=reported, residual_oracle=residual)
    if req.verify or req.task == "gus":
        if not isinstance(reported, (int, float)):
            reasons.append("residual-missing")
        elif reported > oracle.TOL:
            reasons.append("residual")
    wrong = bool(audit.off_graph) or not residual <= oracle.TOL or not anc_ok
    if not residual <= oracle.TOL:
        reasons.append("oracle-residual")
    if not anc_ok:
        reasons.append("oracle-ancilla")

    if req.task == "diag":
        if "stages" in circ.meta:  # no-ancilla framework: (name, Circuit)
            stage_sizes = [oracle.schedule(sc.n, ((g, q) for g, q, _ in sc.gates)).size
                           for _, sc in circ.meta["stages"]]
        elif "stages" in rep:  # five-stage ancilla pipeline: table rows
            stage_sizes = [s["size"] for s in rep["stages"]]
        else:
            stage_sizes = None
        if stage_sizes is not None:
            row["stage_sizes"] = stage_sizes
            if sum(stage_sizes) != rep["size"]:
                reasons.append("stages")
    return row, reasons, wrong


# What qgsynth raises, at this commit, for diag and GUS when vertices 1..n of
# the graph induce a disconnected subgraph (ROADMAP item 5).
REFUSAL = "DisconnectedGraph"


def refused(req, reasons):
    """A request that failed only with the known refusal, on an input that
    the benchmark's own edge-list check says triggers it."""
    return req.refusable and reasons == [REFUSAL]


class Checker:
    """Checks every request's first result with the oracle and requires
    every later result to be identical; counts (request, pass) pairs as
    refused (the known refusal) or failed (any other failure)."""

    def __init__(self, reqs):
        self.reqs = reqs
        self.outcome = [None] * len(reqs)
        self.rows = [None] * len(reqs)
        self.reasons = [[] for _ in reqs]
        self.wrong = False
        self.attempted = self.failed = self.refused = 0

    def __call__(self, i, result):
        outcome = fingerprint(result)
        if self.outcome[i] is None:
            self.outcome[i] = outcome
            self.rows[i], self.reasons[i], wrong = check_request(self.reqs[i], result)
            self.wrong |= wrong
        elif outcome != self.outcome[i] and "nondeterministic" not in self.reasons[i]:
            self.reasons[i].append("nondeterministic")
            self.wrong = True
        self.attempted += 1
        if refused(self.reqs[i], self.reasons[i]):
            self.refused += 1
        else:
            self.failed += bool(self.reasons[i])


# -- metrics ----------------------------------------------------------------

def gmean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def quantile(values, q):
    """q-th percentile by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(setup_s, setup_scale, passes, scales, checker, peak_rss_mb):
    """Time metrics are scaled to the reference speed: `setup_scale` for the
    set-up, scales[k] for pass k."""
    ok = [not r for r in checker.reasons]
    lat_ms = [t * 1e3 * f for lat, f in zip(passes, scales)
              for t, good in zip(lat, ok) if good]
    raw_ms = [t * 1e3 for lat in passes for t, good in zip(lat, ok) if good]
    pass_raw = [sum(lat) for lat in passes]
    good = [row for row, g in zip(checker.rows, ok) if g]
    done, failed = checker.attempted, checker.failed + checker.refused
    speed = f"scaled x{statistics.median(scales):.3f}"
    return {
        "setup_s": (setup_s * setup_scale,
                    f"imports + median of {SETUPS} set-ups, raw {setup_s:.4g} s, "
                    f"scaled x{setup_scale:.3f}"),
        "pass_s": (statistics.median(t * f for t, f in zip(pass_raw, scales)),
                   f"median of {len(passes)} passes, raw {statistics.median(pass_raw):.4g} s, "
                   f"{speed}"),
        "req_ms.p50": (quantile(lat_ms, 50), f"{len(lat_ms)} successful requests, "
                       f"raw {quantile(raw_ms, 50):.4g} ms"),
        "req_ms.p90": (quantile(lat_ms, 90), f"{len(lat_ms)} successful requests, "
                       f"raw {quantile(raw_ms, 90):.4g} ms"),
        # a circuit without CNOTs counts as one, to keep the logarithm finite
        "cx_gm": (gmean(max(r["cx"], 1) for r in good), f"{len(good)} circuits"),
        "bound_ratio_gm": (gmean(r["bound_ratio"] for r in good), f"{len(good)} circuits"),
        "ok_frac": (1.0 - failed / done, f"{done} requests"),
        "fail_frac": (failed / done, f"{done} requests, {checker.refused} refused "
                      f"with {REFUSAL} (ROADMAP item 5)"),
        "peak_rss_mb": (peak_rss_mb, "1 process"),
    }


NOANCILLA_STAGES = ["gen", "gray", "reset", "lambda_rc"]
ANCILLA_STAGES = ["suffix-copy", "gray-init", "prefix-copy", "gray-cycle", "inverse"]


class StageRecorder:
    """Tracer hooks that sum stage depths over a pass's diagonal syntheses,
    nested ones included.  No-ancilla stage circuits are held by reference
    during the pass and scheduled after it, outside the timed region."""

    def __init__(self):
        self.held, self.depths = [], Counter()
        self.hooks = {"diag.synth_diag_noancilla": self._noancilla,
                      "diag_ancilla.synth_diag_ancilla": self._ancilla}

    def _noancilla(self, result):
        for name, sc in result[0].meta.get("stages", ()):
            self.held.append((f"diag.stage_depth.{_stage_family(name)}", sc.n, sc.gates))

    def _ancilla(self, result):
        for s in result[2]["stages"]:
            self.depths[f"diag_ancilla.stage_depth.{s['stage']}"] += s["depth"]

    def collect(self):
        import oracle
        out = {f"diag.stage_depth.{s}": 0 for s in NOANCILLA_STAGES}
        out.update({f"diag_ancilla.stage_depth.{s}": 0 for s in ANCILLA_STAGES})
        out.update(self.depths)
        for key, nq, gates in self.held:
            out[key] += oracle.schedule(nq, ((g, q) for g, q, _ in gates)).counts[0]
        self.held.clear()
        self.depths.clear()
        return out


# spans whose work happens in set-up, not in the passes
SETUP_SPANS = {"bounds.depth_lower_bound"}


def per_layer(untraced, traced, span_snaps, setup_snap, stage_snaps, checker):
    values = {}
    for name in SPAN_NAMES:
        snaps, note = span_snaps, f"per pass, median of {len(span_snaps)} traced passes"
        if name in SETUP_SPANS:
            snaps, note = [setup_snap], "per traced set-up"
        values[f"{name}.calls"] = (statistics.median(s[name][0] for s in snaps), note)
        values[f"{name}.self_s"] = (statistics.median(s[name][1] for s in snaps), note)
    reports = values["sim.assemble_report.calls"][0]
    values["sim.assemble_report.useful_ratio"] = (
        len(checker.reqs) / reports if reports else 0.0,
        "entry-point calls / assemble_report calls")
    for key in stage_snaps[0]:
        values[key] = (statistics.median(s[key] for s in stage_snaps),
                       "summed over one pass's diagonal syntheses")
    values["circuit.gates_total"] = (sum(r.get("size", 0) for r in checker.rows),
                                     "gates in one pass's circuits")
    plain = statistics.median(sum(lat) for lat in untraced)
    with_trace = statistics.median(sum(lat) for lat in traced)
    values["trace.overhead_frac"] = (
        with_trace / plain - 1.0, f"medians of {len(traced)} traced, {len(untraced)} untraced passes")
    return values


# -- main -------------------------------------------------------------------

def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    reference_time()  # the first call warms the interpreter's specialised code
    setup_refs = [reference_time()]
    import_s = load_program()
    import workloads

    builds = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        reqs = workloads.build(args.workload, args.seed)
        builds.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(builds)
    setup_refs.append(reference_time())

    checker = Checker(reqs)
    tracer, stages = Tracer(), StageRecorder()
    tracer.on_return.update(stages.hooks)
    setup_snap = None
    if args.trace:
        with tracer:
            workloads.build(args.workload, args.seed)
        setup_snap = {k: tuple(v) for k, v in tracer.stats.items()}
    untraced, traced, span_snaps, stage_snaps = [], [], [], []
    refs = setup_refs[-1:]  # refs[k] and refs[k + 1] bracket untraced pass k
    t_start, rounds = perf_counter(), []
    # a round starts only if a typical round still fits in --seconds
    while len(untraced) < MIN_PASSES or (
            perf_counter() - t_start + statistics.median(rounds) <= args.seconds):
        t_round = perf_counter()
        untraced.append(run_pass(reqs, checker))
        refs.append(reference_time())
        if args.trace:
            tracer.reset()
            with tracer:
                traced.append(run_pass(reqs, checker))
            span_snaps.append({k: tuple(v) for k, v in tracer.stats.items()})
            stage_snaps.append(stages.collect())
        rounds.append(perf_counter() - t_round)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        values = per_layer(untraced, traced, span_snaps, setup_snap, stage_snaps, checker)
        listed = spec["per_layer"]
    else:
        # set-up and each pass are scaled by the two samples around them
        setup_scale = 2 * REFERENCE_S / sum(setup_refs)
        scales = [2 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
        values = end_to_end(setup_s, setup_scale, untraced, scales, checker, peak_rss_mb)
        listed = spec["end_to_end"]
    names = {m["name"] for m in listed}
    if not names <= set(values) or set(values) - names - {"fail_frac"}:
        sys.exit(f"metrics {sorted(names ^ set(values))} not in both BENCHMARK.json and run.py")
    shown = listed + [{"name": "fail_frac", "unit": "ratio"}] * ("fail_frac" in values)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    rows_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
    failures = Counter()
    with rows_path.open("w") as fh:
        for i, (req, row, reasons) in enumerate(zip(reqs, checker.rows, checker.reasons)):
            row.update(idx=i, synth_s=statistics.median(p[i] for p in untraced),
                       failures=reasons, refused=refused(req, reasons))
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed, **row},
                                default=str) + "\n")
            status = "refused" if refused(req, reasons) else "failed"
            for reason in reasons:
                failures[(status, req.task, req.kind, reason)] += 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests/pass {len(reqs)}  passes {len(untraced)} untraced + "
          f"{len(traced)} traced  (closed loop, 1 client)")
    for m in shown:
        val, note = values[m["name"]]
        print(f"  {m['name']:<44} {val:>14.6g} {m['unit']:<6} {note}")
    for (status, task, kind, reason), count in sorted(failures.items()):
        print(f"  {status + ':':<8} {task:<4} {kind:<10} {reason:<20} "
              f"{count} request(s) per pass")
    print(f"  rows: {rows_path.relative_to(ROOT)}  oracle: "
          f"{'all circuits correct' if not checker.wrong else 'WRONG CIRCUITS'}")
    print(json.dumps({
        "correct": not checker.wrong,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                    for m in listed},
    }))


if __name__ == "__main__":
    main()
