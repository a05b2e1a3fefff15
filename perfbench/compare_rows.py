#!/usr/bin/env python3
"""Compare the circuits of two rows files written by run.py.

    python3 perfbench/compare_rows.py perfbench/out/A.jsonl perfbench/out/B.jsonl

Exits 0 when both files list the same requests with identical SHA-256
digests of their circuit JSON and the same failures, and 1 otherwise,
naming every request that differs.  Two runs of one commit with the same
seed must agree; so must two commits when a change is meant to leave the
circuits byte-identical.
"""

import json
import sys

KEYS = ("task", "graph", "n", "m", "sha256", "failures")


def load(path):
    with open(path) as fh:
        return [tuple(json.loads(line).get(k) for k in KEYS) for line in fh]


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    a, b = (load(p) for p in argv)
    differ = [i for i in range(max(len(a), len(b)))
              if i >= len(a) or i >= len(b) or a[i] != b[i]]
    for i in differ:
        print(f"request {i}: {a[i] if i < len(a) else None} != {b[i] if i < len(b) else None}")
    print(f"{len(a)} vs {len(b)} requests, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
