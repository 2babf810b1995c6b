"""Spans and counters recorded by the benchmark around its calls into pdlfix.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``op`` the id of the op it belongs to.
Spans stay in memory and are written out once, when the run ends.  The
layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    """Stand-in used by untraced runs: spans and counts cost one call."""

    enabled = False

    def span(self, name, op=None):
        return _NULL

    def count(self, name, n=1):
        pass


class _Span:
    __slots__ = ("tracer", "name", "op", "index")

    def __init__(self, tracer, name, op):
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self):
        tr = self.tracer
        if self.op is not None:
            tr.op = self.op
        self.index = len(tr.spans)
        parent = tr.stack[-1] if tr.stack else -1
        tr.stack.append(self.index)
        tr.spans.append([self.name, time.perf_counter(), 0.0, parent, tr.op])
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.counts: Counter = Counter()

    def span(self, name, op=None):
        """Context manager for one span; ``op`` starts a new op id."""
        return _Span(self, name, op)

    def count(self, name, n=1):
        self.counts[name] += n

    def _child_time(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time of its child spans.  Spans on
        one thread nest without overlap, so the children's union is their sum."""
        child = self._child_time()
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name.split(".", 1)[0]] += end - start - inner
        return dict(out)

    def coverage(self, op_name: str = "op") -> float:
        """Share of the time of spans named ``op_name`` that child spans cover."""
        child = self._child_time()
        total = covered = 0.0
        for (name, start, end, _, _), inner in zip(self.spans, child):
            if name == op_name:
                total += end - start
                covered += inner
        return covered / total if total else 0.0

    def dump(self, path, meta: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[name, round(start - origin, 9), round(end - origin, 9), parent, op]
                for name, start, end, parent, op in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": rows, "counts": dict(self.counts)}, handle)
