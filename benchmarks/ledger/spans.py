"""In-memory spans recorded from the benchmark's side of each layer boundary.

A span is ``(name, start, end, parent, operation)``.  Spans nest by a stack,
stay in memory while the benchmark runs, and are written out as a Chrome
trace when it ends (open it at https://ui.perfetto.dev or chrome://tracing).
Nothing in ``src/`` is hooked: a span wraps a *call into* a layer's public
function, never code inside it.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Iterator, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "operation", "track")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 operation: Optional[str], track: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.operation = operation
        self.track = track

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on the calling thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, operation: Optional[str] = None
             ) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if operation is None and parent is not None:
            operation = self.spans[parent].operation
        index = len(self.spans)
        span = Span(name, time.perf_counter(), parent, operation, track=0)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float,
            operation: Optional[str] = None, track: int = 0) -> None:
        """Record a span whose stamps were taken elsewhere (a serving
        ticket's admission and completion stamps, for instance)."""
        span = Span(name, start, None, operation, track)
        span.end = end
        self.spans.append(span)

    def mark(self) -> int:
        """Position to pass to :meth:`totals` to sum only later spans."""
        return len(self.spans)

    def totals(self, since: int = 0) -> dict[str, float]:
        """Seconds per span name, summed over the spans recorded since
        ``since``."""
        sums: dict[str, float] = {}
        for span in self.spans[since:]:
            sums[span.name] = sums.get(span.name, 0.0) + span.duration
        return sums

    def write_chrome_trace(self, path: str) -> None:
        """Chrome-trace JSON (complete events, microseconds)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [{
            "name": span.name, "ph": "X", "pid": 1, "tid": span.track,
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "args": {"operation": span.operation},
        } for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
