"""Per-task span tracing: the one place a task's time is kept.

Every task moves through a fixed lifecycle::

    queued -> started -> fetch -> map|reduce -> serialize -> transfer
           -> committed

``queued`` is stamped when the operation is submitted, ``started`` when
a runtime hands the task to an executor, ``fetch`` when the executor
has its inputs ready, ``map``/``reduce`` when the user function
finishes, ``serialize`` when output buckets are persisted, ``transfer``
when output URLs are published (distributed runs), and ``committed``
when the owning dataset accepts the buckets.  The time between two
consecutive marks is attributed to the later one.

Marks are timestamps on the *recording process's* monotonic clock, so
raw stamps never cross processes: a slave or worker ships its marks as
offsets from its own task start (:meth:`TaskSpan.to_wire`) and the
coordinator's span for the task re-anchors them at its own last
``started`` mark (:meth:`TaskSpan.absorb`).  Every other report of task
time (``phases``, ``operations``, status views, ``task_stats()``,
``task.phase`` events) is derived from spans, and spans live as long
as their dataset: releasing it on any runtime folds them into one
summary row (:meth:`Tracer.fold`).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.dataset import namespace_of

#: The durations that are a task's *phases*: what the report's
#: ``phases`` sums and ``task.phase`` events name.  ``shuffle`` is the
#: serial runtimes' name for gathering a reduce task's input.
PHASES = ("fetch", "shuffle", "map", "reduce", "serialize", "transfer")


class TaskSpan:
    """The recorded lifecycle of one task of one dataset."""

    def __init__(self, dataset_id: str, task_index: int):
        self.dataset_id = dataset_id
        self.task_index = int(task_index)
        #: (event, monotonic timestamp) in arrival order.
        self.events: List[Tuple[str, float]] = []
        #: ``"queued"`` until first started, then ``"running"``, and
        #: ``"done"`` once committed (it stays done if lineage
        #: recovery runs the task again).
        self.state = "queued"
        #: Seconds attributed to each event name: derived from
        #: consecutive marks, or attached with :meth:`add_duration`.
        self.durations: Dict[str, float] = {}
        #: Wall seconds of the execution that committed, as its
        #: executor measured them; None until the task commits.
        self.seconds: Optional[float] = None
        #: Path of a retained ``--mrs-profile-tasks`` .pstats dump for
        #: this task, when it ranked among the slowest.
        self.profile_path: Optional[str] = None
        #: Transfer-plane fetch sub-spans: ``(start, end, fields)`` on
        #: this process's monotonic clock, recorded when a reduce task's
        #: remote inputs are opened (one per remote bucket).
        self.fetch_spans: List[Tuple[float, float, Dict[str, Any]]] = []
        self._lock = threading.Lock()

    def mark(self, event: str, timestamp: Optional[float] = None) -> None:
        """Record ``event`` now; derives the duration since the
        previous event and attributes it to ``event``."""
        now = time.perf_counter() if timestamp is None else timestamp
        with self._lock:
            if self.events:
                previous_time = self.events[-1][1]
                elapsed = max(0.0, now - previous_time)
                self.durations[event] = self.durations.get(event, 0.0) + elapsed
            self.events.append((event, now))
            if event == "committed":
                self.state = "done"
            elif event == "started" and self.state == "queued":
                self.state = "running"

    def add_duration(self, event: str, seconds: float) -> None:
        """Attribute ``seconds`` to ``event`` without a mark (time
        measured beside the lifecycle, e.g. serial input gathering)."""
        with self._lock:
            self.durations[event] = self.durations.get(event, 0.0) + float(
                seconds
            )

    def add_fetch_span(self, start: float, end: float, **fields: Any) -> None:
        """Record one remote-bucket open (local monotonic stamps).

        Called from fetch threads while the task runs; rendered as
        sub-lanes under the task's trace track (see
        :mod:`repro.observability.timeline`).
        """
        with self._lock:
            self.fetch_spans.append(
                (float(start), max(float(start), float(end)), dict(fields))
            )

    def last_time(self, event: str) -> Optional[float]:
        """Timestamp of the most recent ``event`` mark, or None (a
        requeued task is ``started`` more than once)."""
        with self._lock:
            for name, timestamp in reversed(self.events):
                if name == event:
                    return timestamp
            return None

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            first = self.events[0][1] if self.events else 0.0
            span = {
                "dataset_id": self.dataset_id,
                "task_index": self.task_index,
                "events": [
                    {"event": name, "offset": t - first}
                    for name, t in self.events
                ],
                "durations": dict(self.durations),
                "total_seconds": (
                    self.events[-1][1] - first if len(self.events) >= 2 else 0.0
                ),
            }
            if self.seconds is not None:
                span["seconds"] = self.seconds
            if self.profile_path is not None:
                span["profile"] = self.profile_path
            if self.fetch_spans:
                span["fetches"] = [
                    {
                        "offset": start - first,
                        "seconds": end - start,
                        **{k: v for k, v in fields.items() if v is not None},
                    }
                    for start, end, fields in self.fetch_spans
                ]
            return span

    def to_wire(self) -> Dict[str, Any]:
        """An executor's record of one execution, for the completion
        report: marks as ``[name, offset]`` in seconds from the first
        mark (itself omitted), plus any fetch sub-spans and profile."""
        record = self.to_dict()
        wire: Dict[str, Any] = {
            "marks": [[m["event"], m["offset"]] for m in record["events"][1:]]
        }
        for key in ("fetches", "profile"):
            if key in record:
                wire[key] = record[key]
        return wire

    def absorb(self, wire: Any) -> None:
        """Fold an executor's :meth:`to_wire` record into this span at
        this span's last ``started`` mark (the dispatch being reported).
        Garbage is skipped entry by entry: a bad record must never fail
        a completion."""
        if not isinstance(wire, dict):
            return
        anchor = self.last_time("started")
        if anchor is None:
            anchor = time.perf_counter()
        for entry in _as_list(wire.get("marks")):
            try:
                name, offset = entry
                self.mark(str(name), anchor + float(offset))
            except (TypeError, ValueError):
                continue
        for entry in _as_list(wire.get("fetches")):
            try:
                fields = {str(key): value for key, value in entry.items()}
                start = anchor + float(fields.pop("offset"))
                end = start + float(fields.pop("seconds"))
            except (AttributeError, KeyError, TypeError, ValueError):
                continue
            self.add_fetch_span(start, end, **fields)
        if isinstance(wire.get("profile"), str):
            self.profile_path = wire["profile"]

    def add_to(self, row: Dict[str, Any]) -> None:
        """Add this span to a summary row (see :func:`merge_rows`)."""
        with self._lock:
            row["tasks"] += 1
            if self.state != "queued":
                row[self.state] += 1
            if len(self.events) >= 2:
                row["wall_seconds"] += self.events[-1][1] - self.events[0][1]
            _add_durations(row["durations"], self.durations)

    def __repr__(self) -> str:
        names = "->".join(name for name, _ in self.events)
        return (
            f"TaskSpan({self.dataset_id}[{self.task_index}], {names or '<empty>'})"
        )


def _as_list(raw: Any) -> Iterable[Any]:
    return raw if isinstance(raw, (list, tuple)) else ()


def _add_durations(into: Dict[str, float], durations: Dict[str, float]) -> None:
    for event, seconds in durations.items():
        into[event] = into.get(event, 0.0) + seconds


def merge_rows(rows: Iterable[Dict[str, Any]] = ()) -> Dict[str, Any]:
    """Sum summary rows into one.  A row is the fixed-size aggregate
    every view is computed from: task counts by state, summed wall
    seconds and summed durations."""
    merged: Dict[str, Any] = {
        "tasks": 0,
        "done": 0,
        "running": 0,
        "wall_seconds": 0.0,
        "durations": {},
    }
    for row in rows:
        for key in ("tasks", "done", "running", "wall_seconds"):
            merged[key] += row[key]
        _add_durations(merged["durations"], row["durations"])
    return merged


def _summarize(spans: Iterable[TaskSpan]) -> Dict[str, Any]:
    row = merge_rows()
    for span in spans:
        span.add_to(row)
    return row


class Tracer:
    """Get-or-create registry of task spans, indexed by dataset, plus
    the summary rows of datasets whose spans have been folded away."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: dataset id -> task index -> span (live datasets).
        self._spans: Dict[str, Dict[int, TaskSpan]] = {}
        #: dataset id -> summary row (folded datasets).
        self._folded: Dict[str, Dict[str, Any]] = {}
        #: job namespace (``job-3`` of ``job-3.map_7``, ``""`` for a
        #: single-job run's ids; ``None``: every job) -> the sum of its
        #: folded rows, so a live view costs the live datasets only.
        self._folded_totals: Dict[Optional[str], Dict[str, Any]] = {}

    def span(self, dataset_id: str, task_index: int) -> TaskSpan:
        task_index = int(task_index)
        with self._lock:
            spans = self._spans.setdefault(dataset_id, {})
            span = spans.get(task_index)
            if span is None:
                span = spans[task_index] = TaskSpan(dataset_id, task_index)
            return span

    def spans_for(self, dataset_id: str) -> List[TaskSpan]:
        with self._lock:
            return [
                span
                for _, span in sorted(self._spans.get(dataset_id, {}).items())
            ]

    def fold(self, dataset_id: str) -> None:
        """Drop a released dataset's spans, keeping their summary row
        (and adding it to its namespace's folded total)."""
        with self._lock:
            spans = self._spans.pop(dataset_id, None)
            if spans is not None:
                row = self._folded[dataset_id] = _summarize(spans.values())
                for key in (None, namespace_of(dataset_id) or ""):
                    self._folded_totals[key] = merge_rows(
                        [self._folded_totals.get(key, merge_rows()), row]
                    )

    def _live(self, namespace: Optional[str]) -> Dict[str, List[TaskSpan]]:
        """The live datasets' spans under ``namespace`` (caller holds
        the lock)."""
        return {
            dataset_id: list(spans.values())
            for dataset_id, spans in self._spans.items()
            if namespace in (None, namespace_of(dataset_id) or "")
        }

    def rows(self, namespace: Optional[str] = None) -> Dict[str, Dict[str, Any]]:
        """``{dataset id: summary row}`` for every dataset ever traced
        (``namespace`` restricts it to one job's), folded or live."""
        with self._lock:
            rows = {
                dataset_id: row
                for dataset_id, row in self._folded.items()
                if namespace in (None, namespace_of(dataset_id) or "")
            }
            live = self._live(namespace)
        rows.update((i, _summarize(spans)) for i, spans in live.items())
        return rows

    def totals(self, namespace: Optional[str] = None) -> Dict[str, Any]:
        """The sum of :meth:`rows`, costing the live datasets only:
        released ones count through their namespace's folded total."""
        with self._lock:
            folded = self._folded_totals.get(namespace, merge_rows())
            live = self._live(namespace)
        return merge_rows([folded, *map(_summarize, live.values())])

    def __len__(self) -> int:
        """Number of live spans."""
        with self._lock:
            return sum(len(spans) for spans in self._spans.values())

    def snapshot(self) -> List[Dict[str, Any]]:
        """Every live span as plain data, by dataset id then index."""
        with self._lock:
            spans = [
                span
                for _, by_index in sorted(self._spans.items())
                for _, span in sorted(by_index.items())
            ]
        return [span.to_dict() for span in spans]
