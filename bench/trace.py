"""Spans recorded by the benchmark around its calls into each layer.

A span is ``{id, name, start, end, parent, workload}`` plus optional
counts (records, bytes) taken at the same boundary.  Spans stay in
memory and are written once, when the workload ends.  A layer's *self
time* is its spans' duration minus the part their child spans cover, so
the layer table adds up to the traced wall time instead of counting
nested work twice.

End-to-end numbers are never measured with a tracer attached: the traced
pass is its own pass, and ``bench.trace_overhead_frac`` reports what
share of it went into recording spans.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        **counts: float,
    ) -> int:
        """Record a span from timestamps (e.g. a job view's
        ``started_at``/``finished_at``); returns its id."""
        with self._lock:
            span_id = len(self.spans)
            span = {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "workload": self.workload,
            }
            span.update(counts)
            self.spans.append(span)
        return span_id

    @contextmanager
    def span(self, name: str, **counts: float) -> Iterator[Dict[str, Any]]:
        """Time the enclosed block; nests under the innermost open span
        of the same thread.  The yielded dict takes counts known only
        after the work ran (``s["bytes"] = n``)."""
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = self.add(name, time.perf_counter(), 0.0,
                           stack[-1] if stack else None, **counts)
        span = self.spans[span_id]
        stack.append(span_id)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        return self_times(self.spans)

    def total(self, name: str, field: Optional[str] = None) -> float:
        """Summed duration (or summed count ``field``) of spans named
        ``name``."""
        spans = [s for s in self.spans if s["name"] == name]
        if field is not None:
            return float(sum(s.get(field, 0) for s in spans))
        return sum(s["end"] - s["start"] for s in spans)

    def overhead_seconds(self, probes: int = 2000) -> float:
        """What recording this trace cost: the spans recorded times the
        measured cost of one empty span."""
        scratch = Tracer(self.workload)
        began = time.perf_counter()
        for _ in range(probes):
            with scratch.span("probe"):
                pass
        return len(self.spans) * (time.perf_counter() - began) / probes

    def top_level_seconds(self) -> float:
        return sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] is None
        )

    def write(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        payload = {
            "workload": self.workload,
            "self_seconds": self.self_times(),
            "spans": self.spans,
        }
        payload.update(extra or {})
        with open(path, "w") as f:
            json.dump(payload, f)


def covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out: Dict[str, float] = {}
    for span in spans:
        own = (span["end"] - span["start"]) - covered(
            children.get(span["id"], []), span["start"], span["end"]
        )
        out[span["name"]] = out.get(span["name"], 0.0) + own
    return out
