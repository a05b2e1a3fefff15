"""Spans around calls into qgsynth's public functions, recorded from outside.

A `Tracer` rebinds each traced function wherever a qgsynth module looks it
up by name, and puts the originals back on exit.  Each
call becomes a span; spans nest on a stack, and a span's self time is its
duration minus the time its child spans cover.  Only per-function totals
are kept: call count and self time.
"""

from __future__ import annotations

import sys
from time import perf_counter

PACKAGE = "qgsynth"
# (module, attribute path) of every traced function; "Circuit.metrics" is a
# method rebound on its class
TRACED = [
    ("states", "qsp_synthesize"),
    ("states", "gus_synthesize"),
    ("states", "synth_ucg"),
    ("states", "state_to_ucgs"),
    ("states", "ucg_to_diagonals"),
    ("states", "unitary_to_ucgs"),
    ("diag_ancilla", "synth_diag_auto"),
    ("diag_ancilla", "synth_diag_ancilla"),
    ("diag_ancilla", "synth_diag_expander_ancilla"),
    ("diag", "synth_diag_noancilla"),
    ("linear", "route_cnot_gates"),
    ("linear", "synth_permutation"),
    ("gray", "solve_phase_coefficients"),
    ("gray", "gray_code"),
    ("graphs", "shortest_path"),
    ("graphs", "vertex_expansion"),
    ("graphs", "expander_cascade"),
    ("sim", "assemble_report"),
    ("sim", "verify_target"),
    ("circuit", "Circuit.metrics"),
    ("circuit", "validate_connectivity"),
    ("bounds", "depth_lower_bound"),
]

SPAN_NAMES = [f"{mod}.{attr}" for mod, attr in TRACED]


class Tracer:
    """Context manager: while active, `stats[name]` holds [calls, self_s]
    for every traced function.  `on_return[name]`, if set, is called with
    each result of that function after its span has closed."""

    def __init__(self):
        self.stats = {name: [0, 0.0] for name in SPAN_NAMES}
        self.on_return = {}
        self._stack = []
        self._undo = []

    def reset(self):
        for s in self.stats.values():
            s[0], s[1] = 0, 0.0

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        hooks = self.on_return

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stat[0] += 1
                stat[1] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            hook = hooks.get(name)
            if hook is not None:
                hook(result)
            return result

        return traced

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod_name, attr in TRACED:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)
        return False
