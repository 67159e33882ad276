"""Spans around the calls into each library module, recorded from outside.

Each hook replaces a function in the namespace of the module that calls it
(``laplace_krylov.restart.arnoldi``, not ``laplace_krylov.krylov.arnoldi``),
because the callers bound the name at import time. ``src/`` is not touched:
:meth:`Tracer.install` swaps the attributes in and :meth:`Tracer.remove`
puts the originals back.

A span is ``(name, start, end, parent, solve, note)``: ``parent`` is the
index of the enclosing span or -1, ``solve`` the id of the solve it belongs
to (-1 during set-up), and ``note`` the size of the work where the call has
one (Arnoldi steps, rule nodes, spline knots) or, for ``expm_action``, a
hash of its (H, t) argument pair.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import numpy as np

from laplace_krylov import baselines, quadrature, restart


SOLVE = "restart.restarted_laplace"
MATVEC = "operators.matvec"


def _expm_key(args, out):
    return hash((np.ascontiguousarray(args[0]).tobytes(), float(args[2])))


# (module, attribute the caller looks up, span name, note)
SPAN_HOOKS = [
    (restart, "restarted_laplace", SOLVE, None),
    (restart, "arnoldi", "krylov.arnoldi", lambda args, out: out.m),
    (baselines, "arnoldi", "krylov.arnoldi", lambda args, out: out.m),
    (restart, "eig_hermitian", "smallmat.eig_hermitian", None),
    (restart, "expm_action", "smallmat.expm_action", _expm_key),
    (quadrature, "expm_action", "smallmat.expm_action", _expm_key),
    (restart, "build_laplace_rule", "quadrature.build_laplace_rule", lambda args, out: out.count),
    (restart, "apply_rule_matrix", "quadrature.apply_rule_matrix", None),
    (restart, "spline_fit", "spline.spline_fit", lambda args, out: len(args[0])),
    (restart, "error_function_values", "restart.error_function_values", None),
    (baselines, "reference_apply", "baselines.reference_apply", None),
]
# called thousands of times per solve with microseconds of work each, so
# only counted; its integrand's spans nest under the rule build instead
COUNT_HOOKS = [(quadrature, "gk15", "quadrature.gk15")]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.solve = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.solve,
                              note(args, out) if note is not None and out is not None else None)
        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.solve, name)] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        for module, attr, name, note in SPAN_HOOKS:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self.wrap(name, orig, note))
        for module, attr, name in COUNT_HOOKS:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self.count(name, orig))

    def remove(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def solve_stats(self) -> dict[int, dict]:
        """Per solve id >= 0: calls, inclusive and self seconds, notes per span name."""
        child_time = defaultdict(float)
        for name, t0, t1, parent, solve, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[int, dict] = {}
        for idx, (name, t0, t1, parent, solve, note) in enumerate(self.spans):
            if solve < 0:
                continue
            per = out.setdefault(solve, {}).setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": []})
            per["calls"] += 1
            per["s"] += t1 - t0
            per["self_s"] += t1 - t0 - child_time[idx]
            if note is not None:
                per["notes"].append(note)
        for (solve, name), calls in self.counts.items():
            if solve >= 0:
                out.setdefault(solve, {})[name] = {"calls": calls, "s": 0.0, "self_s": 0.0, "notes": []}
        return out

    def setup_seconds(self, name) -> float:
        return sum(t1 - t0 for n, t0, t1, parent, solve, _ in self.spans
                   if solve < 0 and n == name and parent == -1)


# span name -> the fields reported for it, as "<span>.<field>"
REPORTED = {
    MATVEC: ("calls", "s"),
    "krylov.arnoldi": ("calls", "steps", "s", "self_s"),
    "smallmat.expm_action": ("calls", "s", "distinct_frac"),
    "smallmat.eig_hermitian": ("calls", "s"),
    "quadrature.build_laplace_rule": ("calls", "s", "self_s", "nodes"),
    "quadrature.gk15": ("calls",),
    "quadrature.apply_rule_matrix": ("calls", "s", "self_s"),
    "spline.spline_fit": ("calls", "s", "knots"),
    "restart.error_function_values": ("calls", "s", "self_s"),
}
UNITS = {"calls": "count", "steps": "count", "nodes": "count", "knots": "count",
         "distinct_frac": "ratio", "s": "s", "self_s": "s"}
# fields that repeat exactly for a given start vector
EXACT = {"calls", "steps", "nodes", "knots", "distinct_frac"}
_EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": []}


def _field(rec: dict, field: str) -> float:
    notes = rec["notes"]
    if field == "steps":
        return sum(notes)
    if field in ("nodes", "knots"):
        return statistics.fmean(notes) if notes else 0.0
    if field == "distinct_frac":
        return len(set(notes)) / rec["calls"] if rec["calls"] else 0.0
    return rec[field]


def layer_metrics(stats: dict[int, dict], start_of: dict[int, int]) -> dict[str, float]:
    """Per-layer metrics from the traced solves; ``restart.self_s`` is the
    solve time no traced child covers.

    Times are means over all traced solves. Exact fields are taken from the
    first traced solve of every start vector and averaged over the start
    vectors, which keeps them independent of how many solves fit in a run.
    """
    first: dict[int, dict] = {}
    timed = []
    for solve in sorted(stats):
        rec = stats[solve]
        values = {f"{span}.{field}": _field(rec.get(span, _EMPTY), field)
                  for span, fields in REPORTED.items() for field in fields}
        values["restart.self_s"] = rec[SOLVE]["self_s"]
        first.setdefault(start_of[solve], values)
        timed.append(values)
    out = {}
    for name in timed[0]:
        pool = first.values() if name.rsplit(".", 1)[1] in EXACT else timed
        out[name] = statistics.fmean(v[name] for v in pool)
    return out


# layer -> span names whose self time it owns
LAYERS = {
    "operators": [MATVEC],
    "krylov": ["krylov.arnoldi"],
    "smallmat": ["smallmat.expm_action", "smallmat.eig_hermitian"],
    "quadrature": ["quadrature.build_laplace_rule", "quadrature.apply_rule_matrix"],
    "spline": ["spline.spline_fit"],
    "restart": ["restart.error_function_values", SOLVE],
}


def layer_self_seconds(stats: dict[int, dict]) -> dict[str, float]:
    """Mean self seconds per solve of each layer, largest first."""
    n = len(stats)
    out = {layer: sum(s.get(name, {}).get("self_s", 0.0) for s in stats.values() for name in names) / n
           for layer, names in LAYERS.items()}
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
