"""Structured runtime event log: the live counterpart of the report.

The one-shot ``--mrs-metrics-json`` report answers "what did the job
cost" *after* it finishes; the event log answers "what is the job doing
*right now*" and "in what order did things happen".  Every backend
emits typed, monotonic-timestamped events — job/dataset/task lifecycle,
scheduler decisions, spills, worker/slave death and requeue, heartbeats
— into an :class:`EventLog`:

* an in-memory ring buffer feeds the live status plane
  (``Job.status()``, ``--mrs-progress``, ``--mrs-status-http``) and the
  end-of-job timeline conversion (:mod:`repro.observability.timeline`),
* with ``--mrs-event-log PATH``, every event is also appended to a
  crash-safe JSONL stream: one complete line per event, written with a
  single ``write`` call and flushed, so a crash can at worst truncate
  the final line (which :func:`read_jsonl` tolerates).  Lines carry a
  per-process sequence number plus ``pid``/``role`` fields, so several
  processes may append to the *same* file and readers can still
  reconstruct each process's exact emission order.

Cost discipline: when no consumer asked for events, a backend's
``observability.events`` is ``None`` and every emission site is a
single attribute check — no allocation, no locking, no clock read.

Event envelope (one JSON object per line)::

    {"seq": 17, "t": 3.4183, "name": "task.started",
     "pid": 4242, "role": "master", "fields": {"dataset_id": "...",
     "task_index": 0, "worker": 2}}

``t`` is ``time.perf_counter()`` of the *emitting* process — monotonic
but process-local, so raw stamps never cross processes.  A task's
phase events are not emitted where the work happens: the process that
owns the event log derives them from the task's span when it commits
(:func:`emit_task_events`); a coordinator's span has by then absorbed
the executor's marks, re-anchored on its own clock
(:meth:`~repro.observability.tracing.TaskSpan.absorb`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from repro.observability.tracing import PHASES

__all__ = [
    "EventLog",
    "read_jsonl",
    "emit_task_events",
]

#: Default ring-buffer capacity when the full stream need not be kept.
DEFAULT_RING_SIZE = 4096


class EventLog:
    """Ring buffer + optional append-only JSONL sink for typed events.

    Thread-safe; emission is a lock, a counter bump, a deque append,
    and (with a sink) one buffered line write + flush.
    """

    def __init__(
        self,
        role: str,
        path: Optional[str] = None,
        ring_size: Optional[int] = DEFAULT_RING_SIZE,
        pid: Optional[int] = None,
    ):
        self.role = role
        self.pid = int(pid if pid is not None else os.getpid())
        self.path = path
        self._seq = 0
        self._lock = threading.Lock()
        #: ring_size=None keeps the full stream (tests only: a run's
        #: whole stream belongs in the JSONL file).
        self._ring: deque = deque(maxlen=ring_size)
        self._file = None
        if path:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            # Append mode: several processes (slaves sharing a tmpdir)
            # may target one file; each line is written with a single
            # write() on an O_APPEND descriptor.
            self._file = open(path, "a", encoding="utf-8")

    # -- emission -------------------------------------------------------

    def emit(
        self, name: str, t: Optional[float] = None, **fields: Any
    ) -> Dict[str, Any]:
        """Record one event; returns the event dict.

        ``t`` overrides the timestamp (still on this process's
        monotonic clock) for events whose true time is already known —
        e.g. a phase boundary derived from a span mark.
        """
        stamp = time.perf_counter() if t is None else float(t)
        event: Dict[str, Any] = {
            "seq": 0,  # patched under the lock
            "t": stamp,
            "name": name,
            "pid": self.pid,
            "role": self.role,
        }
        if fields:
            event["fields"] = fields
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            self._ring.append(event)
            if self._file is not None:
                # One complete line per write call: a crash mid-job
                # leaves at most one truncated trailing line behind.
                self._file.write(
                    json.dumps(event, separators=(",", ":"), sort_keys=True)
                    + "\n"
                )
                self._file.flush()
        return event

    # -- reading --------------------------------------------------------

    def snapshot(
        self,
        since_seq: int = 0,
        dataset_prefix: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Events currently in the ring with ``seq > since_seq``.

        ``dataset_prefix`` keeps only events whose ``dataset_id`` or
        ``job_id`` field falls under the prefix — the per-job event
        slice a multi-job server serves at ``GET /jobs/<id>/events``
        (job namespaces prefix every dataset id, so ``"job-3."``
        matches exactly job 3's task/dataset lifecycle).
        """
        with self._lock:
            events = [e for e in self._ring if e["seq"] > since_seq]
        if dataset_prefix is None:
            return events
        job_id = dataset_prefix.rstrip(".")
        matched = []
        for event in events:
            fields = event.get("fields") or {}
            dataset_id = fields.get("dataset_id")
            if isinstance(dataset_id, str) and dataset_id.startswith(
                dataset_prefix
            ):
                matched.append(event)
            elif fields.get("job_id") == job_id:
                matched.append(event)
        return matched

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def last_seq(self) -> int:
        return self._seq

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                try:
                    self._file.flush()
                    self._file.close()
                finally:
                    self._file = None


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse an event-log JSONL file back into event dicts.

    A crash mid-write can truncate the *final* line; that line is
    silently dropped.  A malformed line anywhere else means the file
    was not produced by :class:`EventLog` (or was corrupted in place)
    and raises ``ValueError``.
    """
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().split("\n")
    # A well-formed file ends with "\n", so the final split element is
    # empty; anything non-empty there is a truncated trailing write.
    complete, trailing = lines[:-1], lines[-1]
    for lineno, line in enumerate(complete, start=1):
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == len(complete) and not trailing:
                # Truncated final line without a newline elsewhere in
                # the file (crash between the bytes and the "\n").
                break
            raise ValueError(
                f"{path}:{lineno}: malformed event line: {line[:80]!r}"
            ) from exc
        if isinstance(event, dict):
            events.append(event)
    return events


def emit_task_events(events: EventLog, span: Any, **who: Any) -> None:
    """Emit a just-committed task's ``task.phase``, ``fetch.span``,
    ``task.profiled`` and ``task.committed`` events from its span.

    Each is stamped where the span says it happened, not when it was
    derived, so the timeline places them correctly.  Consecutive marks
    delimit phases; only marks after the last ``started`` count (a
    requeued task's earlier dispatches ended in failure, not phases;
    the gap ending at ``started`` is scheduler wait).  ``who``
    (``worker=3`` / ``slave=2``) names the executor, which is the
    events' trace lane.
    """
    fields = {
        "dataset_id": span.dataset_id, "task_index": span.task_index, **who
    }
    marks = list(span.events)
    begin = max(
        (i for i, (name, _) in enumerate(marks) if name == "started"),
        default=0,
    )
    started = ended = marks[begin][1]
    for (_, previous), (name, t) in zip(marks[begin:], marks[begin + 1:]):
        if name in PHASES:
            ended = t
            events.emit(
                "task.phase",
                t=t,
                phase=name,
                seconds=max(0.0, t - previous),
                **fields,
            )
    # The committing execution's transfer-plane fetches, stamped at
    # their end like task.phase so the timeline can draw them
    # overlapping the merge.
    for start, end, fetch in span.fetch_spans:
        if start >= started:
            events.emit(
                "fetch.span",
                t=end,
                seconds=end - start,
                thread=fetch.get("thread", 0),
                source=fetch.get("source"),
                **fields,
            )
    if span.seconds is not None:
        fields["seconds"] = span.seconds
    if span.profile_path is not None:
        events.emit("task.profiled", t=ended, path=span.profile_path, **fields)
    events.emit("task.committed", t=marks[-1][1], **fields)
