"""In-memory spans for the traced run, written out once when it ends."""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    """Spans as (name, parent index, start ns, end ns); one trace per run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._open: list[int] = []

    def _parent(self):
        return self._open[-1] if self._open else None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._parent()
        self._open.append(idx)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[idx] = (name, parent, start, end)

    def add(self, name: str, start: int, end: int) -> None:
        """Record a span timed by the caller, under the open span."""
        self.spans.append((name, self._parent(), start, end))

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span of its own, kept also if fn raises."""
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.add(name, start, perf_counter_ns())

    def durations(self, name: str) -> list[int]:
        return [s[3] - s[2] for s in self.spans if s is not None and s[0] == name]

    def self_times(self) -> dict[str, int]:
        """Total self time per span name: duration less its children's.

        Spans on one thread nest without overlapping, so the children of a
        span cover exactly the sum of their durations.
        """
        child_ns = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals: dict[str, int] = {}
        for (name, _, start, end), inner in zip(self.spans, child_ns):
            totals[name] = totals.get(name, 0) + (end - start - inner)
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))
