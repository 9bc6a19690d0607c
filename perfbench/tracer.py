"""
Span tracer that wraps the package's public functions from outside.

`Tracer.install` replaces each traced function at every module binding
of the `mothership` package that refers to it (so `mothership.exact`'s
own `propagate` is wrapped as well as `mothership.propagate`), and the
methods of `PlanEvaluator` on the class.  Each call becomes a span with
a name, start, end and the span that caused it.  Aggregates (calls,
inclusive time, self time, calls per parent) are kept for every span;
the spans themselves are kept in memory up to `cap` and written out by
`write`.  Single-threaded by design, like the solvers it traces.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# (span name, module, attribute); a dotted attribute is a method on a class.
TARGETS = (
    ("model.parse_instance", "mothership.model", "parse_instance"),
    ("model.parse_plan", "mothership.model", "parse_plan"),
    ("model.serialize_plan", "mothership.model", "serialize_plan"),
    ("instgen.generate", "mothership.instgen", "generate"),
    ("evaluation.validate", "mothership.evaluation", "validate"),
    ("evaluation.propagate", "mothership.evaluation", "propagate"),
    ("evaluation.bound_of", "mothership.evaluation", "PlanEvaluator.bound_of"),
    ("evaluation.completions", "mothership.evaluation", "PlanEvaluator.completions"),
    ("evaluation.group_length", "mothership.evaluation", "PlanEvaluator.group_length"),
    ("exact.solve_bnb", "mothership.exact", "solve_bnb"),
    ("exact.horizon", "mothership.exact", "horizon"),
    ("heuristic.construct", "mothership.heuristic", "construct"),
    ("heuristic.improve", "mothership.heuristic", "improve"),
    ("mipexport.export_bigm", "mothership.mipexport", "export_bigm"),
    ("mipexport.export_miqcp", "mothership.mipexport", "export_miqcp"),
    ("mipexport.plan_assignment", "mothership.mipexport", "plan_assignment"),
    ("mipexport.import_solution", "mothership.mipexport", "import_solution"),
)


class Stats:
    """Aggregates of closed spans: per name [calls, total_ns, self_ns],
    and calls per (parent name, name) edge."""

    def __init__(self):
        self.by_name: dict[str, list[int]] = {}
        self.edges: dict[tuple[str | None, str], int] = {}

    def calls(self, name: str) -> int:
        return self.by_name.get(name, (0, 0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.by_name.get(name, (0, 0, 0))[1] / 1e9

    def self_per_call_s(self, name: str) -> float:
        calls, _, self_ns = self.by_name.get(name, (0, 0, 0))
        return self_ns / calls / 1e9 if calls else 0.0

    def edge(self, parent: str, name: str) -> int:
        return self.edges.get((parent, name), 0)

    def merged(self, other: "Stats") -> "Stats":
        out = Stats()
        for src in (self, other):
            for name, (c, t, s) in src.by_name.items():
                acc = out.by_name.setdefault(name, [0, 0, 0])
                acc[0] += c
                acc[1] += t
                acc[2] += s
            for key, c in src.edges.items():
                out.edges[key] = out.edges.get(key, 0) + c
        return out


class Tracer:
    def __init__(self, cap: int = 20_000):
        self.cap = cap
        self.enabled = True
        self.stats = Stats()
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    def _close(self, frame, start: int, end: int):
        span_id, name, child_ns = frame
        dur = end - start
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        acc = self.stats.by_name.get(name)
        if acc is None:
            acc = self.stats.by_name[name] = [0, 0, 0]
        acc[0] += 1
        acc[1] += dur
        acc[2] += dur - child_ns
        key = (parent[1] if parent is not None else None, name)
        self.stats.edges[key] = self.stats.edges.get(key, 0) + 1
        if len(self.spans) < self.cap:
            self.spans.append((span_id, parent[0] if parent is not None else 0, name, start, end))
        else:
            self.dropped += 1

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [tracer._next_id, name, 0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer._close(frame, start, end)

        return traced

    def install(self):
        """Wrap every target at every binding inside the package."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "mothership" or n.startswith("mothership."))
        ]
        for name, module, attr in TARGETS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[module], cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, binding, original))
                        setattr(m, binding, wrapper)

    def uninstall(self):
        for holder, binding, original in reversed(self._patched):
            setattr(holder, binding, original)
        self._patched.clear()

    @contextmanager
    def paused(self):
        """Call straight through the wrappers, e.g. around the
        benchmark's own correctness checks."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def take_stats(self) -> Stats:
        """Return the aggregates so far and start new ones."""
        out, self.stats = self.stats, Stats()
        return out

    def write(self, path, header: dict):
        """Write the header, then one JSON line per recorded span."""
        with open(path, "w") as f:
            header = {**header, "spans_kept": len(self.spans), "spans_dropped": self.dropped}
            f.write(json.dumps(header) + "\n")
            for span_id, parent, name, start, end in self.spans:
                f.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                    "start_ns": start, "end_ns": end}) + "\n")
