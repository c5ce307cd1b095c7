"""Chrome/Perfetto ``trace_event`` conversion for merged event streams.

``--mrs-trace PATH`` turns a job's event stream into a JSON file that
``chrome://tracing`` and https://ui.perfetto.dev open directly: one
track per executing worker/slave (serial backends get a single track),
a ``B``/``E`` span per task with nested spans for its phases
(fetch/map/reduce/serialize/transfer), per-fetch-thread sub-lanes
showing when each remote input bucket was opened, and
instant events for failures, requeues, and worker/slave deaths — so a
1000-task job is inspectable as a flame-style timeline instead of a
1000-row table.

Input is either a live :class:`~repro.observability.events.EventLog`
snapshot or a JSONL file written with ``--mrs-event-log``
(:func:`trace_from_jsonl`).

Output schema (the "JSON Array Format" plus process/thread metadata)::

    {"traceEvents": [
        {"ph": "M", "pid": 1, "name": "process_name",
         "args": {"name": "master"}},
        {"ph": "B", "pid": 1, "tid": 2, "ts": 1834.0,
         "name": "wordcount_map_0[3]", "cat": "task"},
        {"ph": "E", "pid": 1, "tid": 2, "ts": 20210.5},
        {"ph": "i", "pid": 1, "tid": 2, "ts": 9000.0, "s": "g",
         "name": "task.failed", ...},
     ],
     "displayTimeUnit": "ms"}

``ts`` is microseconds from the earliest event in the stream.  Every
``B`` has a matching ``E`` on the same ``pid``/``tid``; tasks that
never committed are rendered as instants rather than unterminated
spans, so the pairing invariant holds for crashy jobs too.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "trace_from_events",
    "trace_from_jsonl",
    "write_trace",
]

#: Event names rendered as instant markers.
INSTANT_EVENTS = frozenset(
    {
        "task.failed",
        "task.requeued",
        "slave.lost",
        "worker.lost",
        "slave.signin",
        "worker.spawned",
        "spill.bucket",
        "task.profiled",
        "job.startup",
        "dataset.complete",
        "dataset.failed",
    }
)

_MICROS = 1e6


def _task_key(fields: Dict[str, Any]) -> Optional[Tuple[str, int]]:
    dataset_id = fields.get("dataset_id")
    task_index = fields.get("task_index")
    if dataset_id is None or task_index is None:
        return None
    return str(dataset_id), int(task_index)


class _Track:
    """One (pid, tid) lane plus its human-readable labels."""

    def __init__(self, pid: int, tid: int, process: str, thread: str):
        self.pid = pid
        self.tid = tid
        self.process = process
        self.thread = thread


def _track_for(event: Dict[str, Any]) -> Tuple[int, int, str, str]:
    """Assign an event to a (pid, tid, process label, thread label).

    Work attributed to a specific worker/slave gets its own lane
    (``tid`` = worker/slave id + 1); everything else lands on the
    emitting process's lane 0.
    """
    fields = event.get("fields") or {}
    pid = int(event.get("pid", 0))
    role = str(event.get("role", "mrs"))
    worker = fields.get("worker")
    if worker is not None:
        return pid, int(worker) + 1, role, f"worker-{worker}"
    slave = fields.get("slave")
    if slave is not None:
        return pid, int(slave) + 1, role, f"slave-{slave}"
    return pid, 0, role, role


def trace_from_events(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Build a trace_event document from a merged event stream."""
    events = [e for e in events if isinstance(e, dict) and "t" in e]
    if not events:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(float(e["t"]) for e in events)

    def ts(t: float) -> float:
        return max(0.0, (float(t) - t0) * _MICROS)

    trace: List[Dict[str, Any]] = []
    tracks: Dict[Tuple[int, int], _Track] = {}

    def track(event: Dict[str, Any]) -> _Track:
        pid, tid, process, thread = _track_for(event)
        key = (pid, tid)
        if key not in tracks:
            tracks[key] = _Track(pid, tid, process, thread)
        return tracks[key]

    # Pass 1: collect per-task lifecycle boundaries and phases so each
    # task renders as one properly nested B/E group on its lane.
    started: Dict[Tuple[str, int], Dict[str, Any]] = {}
    phases: Dict[Tuple[str, int], List[Dict[str, Any]]] = {}
    fetches: Dict[Tuple[str, int], List[Dict[str, Any]]] = {}
    committed: Dict[Tuple[str, int], Dict[str, Any]] = {}
    for event in events:
        name = event.get("name")
        fields = event.get("fields") or {}
        key = _task_key(fields)
        if key is None:
            continue
        if name == "task.started":
            # Requeued tasks start more than once; the last start wins
            # (earlier attempts end in task.failed/requeued instants).
            started[key] = event
            phases[key] = []
            fetches[key] = []
        elif name == "task.phase":
            phases.setdefault(key, []).append(event)
        elif name == "fetch.span":
            fetches.setdefault(key, []).append(event)
        elif name == "task.committed":
            committed[key] = event

    for key, start_event in sorted(started.items()):
        end_event = committed.get(key)
        if end_event is None:
            continue  # rendered as instants only; keeps B/E paired
        lane = track(start_event)
        dataset_id, task_index = key
        begin_ts = ts(start_event["t"])
        end_ts = max(ts(end_event["t"]), begin_ts)
        sub: List[Tuple[float, float, str]] = []
        for phase_event in phases.get(key, ()):
            pf = phase_event.get("fields") or {}
            seconds = float(pf.get("seconds", 0.0))
            phase_end = ts(phase_event["t"])
            phase_begin = max(begin_ts, phase_end - seconds * _MICROS)
            phase_end = max(phase_begin, phase_end)
            end_ts = max(end_ts, phase_end)
            sub.append((phase_begin, phase_end, str(pf.get("phase", "phase"))))
        trace.append(
            {
                "ph": "B",
                "pid": lane.pid,
                "tid": lane.tid,
                "ts": begin_ts,
                "name": f"{dataset_id}[{task_index}]",
                "cat": "task",
                "args": {"dataset_id": dataset_id, "task_index": task_index},
            }
        )
        for phase_begin, phase_end, phase_name in sorted(sub):
            trace.append(
                {
                    "ph": "B",
                    "pid": lane.pid,
                    "tid": lane.tid,
                    "ts": phase_begin,
                    "name": phase_name,
                    "cat": "phase",
                }
            )
            trace.append(
                {
                    "ph": "E",
                    "pid": lane.pid,
                    "tid": lane.tid,
                    "ts": phase_end,
                }
            )
        trace.append(
            {"ph": "E", "pid": lane.pid, "tid": lane.tid, "ts": end_ts}
        )
        # Transfer-plane fetches: each fetch thread gets its own
        # sub-lane under the worker's track (tid offset keeps the main
        # lane's B/E nesting intact), so the parallel opens of a task's
        # remote inputs are visible side by side.
        for fetch_event in sorted(
            fetches.get(key, ()), key=lambda e: float(e["t"])
        ):
            ff = fetch_event.get("fields") or {}
            seconds = float(ff.get("seconds", 0.0))
            thread = int(ff.get("thread", 0))
            fetch_end = max(ts(fetch_event["t"]), begin_ts)
            fetch_begin = max(begin_ts, fetch_end - seconds * _MICROS)
            fetch_tid = (thread + 1) * 10000 + lane.tid
            track_key = (lane.pid, fetch_tid)
            if track_key not in tracks:
                tracks[track_key] = _Track(
                    lane.pid, fetch_tid, lane.process,
                    f"{lane.thread} fetch#{thread}",
                )
            trace.append(
                {
                    "ph": "B",
                    "pid": lane.pid,
                    "tid": fetch_tid,
                    "ts": fetch_begin,
                    "name": f"fetch source {ff.get('source')}",
                    "cat": "fetch",
                    "args": {
                        "dataset_id": dataset_id,
                        "task_index": task_index,
                        "source": ff.get("source"),
                    },
                }
            )
            trace.append(
                {
                    "ph": "E",
                    "pid": lane.pid,
                    "tid": fetch_tid,
                    "ts": max(fetch_begin, fetch_end),
                }
            )

    # Pass 2: instants (failures, requeues, deaths, spills, markers).
    for event in events:
        name = event.get("name")
        if name not in INSTANT_EVENTS:
            continue
        lane = track(event)
        trace.append(
            {
                "ph": "i",
                "pid": lane.pid,
                "tid": lane.tid,
                "ts": ts(event["t"]),
                "s": "g",
                "name": str(name),
                "cat": "marker",
                "args": dict(event.get("fields") or {}),
            }
        )

    # Metadata last: label every process/thread lane that appeared.
    for lane in tracks.values():
        trace.append(
            {
                "ph": "M",
                "pid": lane.pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": lane.process},
            }
        )
        trace.append(
            {
                "ph": "M",
                "pid": lane.pid,
                "tid": lane.tid,
                "name": "thread_name",
                "args": {"name": lane.thread},
            }
        )
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def trace_from_jsonl(path: str) -> Dict[str, Any]:
    """Build a trace from a ``--mrs-event-log`` JSONL file."""
    from repro.observability.events import read_jsonl

    return trace_from_events(read_jsonl(path))


def write_trace(trace: Dict[str, Any], path: str) -> str:
    """Atomically write a trace document to ``path``; returns ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as f:
        json.dump(trace, f)
        f.write("\n")
    os.replace(tmp_path, path)
    return path
