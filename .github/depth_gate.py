#!/usr/bin/env python3
"""Fail when a benchmark request got deeper: compare the rows files that
perfbench/run.py writes for the same workload and seed at two commits.

    python .github/depth_gate.py BASE.jsonl HEAD.jsonl [BASE2.jsonl HEAD2.jsonl ...]

Circuit depth is deterministic, so a request that is deeper at head than
at base is a regression, and so is one that compiled at base and not at
head.  Both are listed and make the exit status 1.  A request that gained
CNOTs is listed too but does not fail.  The two files of a pair must list
the same requests in the same order.
"""

import json
import sys

KEY = ("task", "graph", "n", "m")


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def compare(base_path, head_path):
    """(failures, notes): lines naming each regression and each CNOT rise."""
    base, head = load(base_path), load(head_path)
    if [tuple(r[k] for k in KEY) for r in base] != [
            tuple(r[k] for k in KEY) for r in head]:
        return [f"{head_path}: not the requests of {base_path}"], []
    failures, notes = [], []
    for i, (a, b) in enumerate(zip(base, head)):
        name = f"request {i}: {a['task']} {a['graph']} n={a['n']} m={a['m']}"
        if a.get("depth") is None:
            continue
        if b.get("depth") is None:
            failures.append(f"{name} compiled at base, not at head")
        elif b["depth"] > a["depth"]:
            failures.append(f"{name} depth {a['depth']} -> {b['depth']}")
        elif b["cx"] > a["cx"]:
            notes.append(f"{name} cx {a['cx']} -> {b['cx']}")
    return failures, notes


def main(argv):
    if not argv or len(argv) % 2:
        sys.exit(__doc__)
    failed = 0
    for base_path, head_path in zip(argv[::2], argv[1::2]):
        failures, notes = compare(base_path, head_path)
        for line in failures:
            print(f"DEEPER {line}")
        for line in notes:
            print(f"more CNOTs (not gated) {line}")
        print(f"{head_path}: {len(failures)} regressed, "
              f"{len(notes)} gained CNOTs")
        failed += len(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
