"""In-memory spans recorded by the benchmark around calls into the program.

A span is ``(span_id, parent_id, run_id, name, start, end)`` with
``perf_counter`` times.  Spans stay in memory and are written once, at
exit.  With tracing off, :meth:`Tracer.span` returns a shared no-op
context manager, so untraced runs pay one attribute lookup per call.
"""

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.run_id = 0
        self._stack = []

    def span(self, name):
        return self._record(name) if self.enabled else _NULL

    @contextmanager
    def _record(self, name):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the id; filled in on exit
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, self.run_id, name, start, end)

    def add(self, name, start, end, parent=None):
        """Record a span timed elsewhere (e.g. a request on an event loop)."""
        if self.enabled:
            span_id = len(self.spans)
            self.spans.append((span_id, parent, self.run_id, name, start, end))
            return span_id
        return None

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["id", "parent", "run", "name", "start", "end"], "spans": self.spans},
                handle,
            )


def durations(spans, name):
    """Durations in seconds of every span called ``name``."""
    return [end - start for _, _, _, span_name, start, end in spans if span_name == name]


def self_times(spans):
    """Seconds per span name not covered by that span's direct children."""
    child_time = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for span_id, _, _, name, start, end in spans:
        totals[name] += (end - start) - child_time[span_id]
    return dict(totals)
