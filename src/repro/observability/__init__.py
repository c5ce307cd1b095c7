"""Runtime observability: metrics, task spans, and JSON export.

Every execution backend owns one :class:`Observability` instance
bundling what the runtime records about itself:

* a :class:`~repro.observability.tracing.Tracer` holding one
  :class:`~repro.observability.tracing.TaskSpan` per task — the only
  place a task's time is kept, freed with its dataset,
* a :class:`~repro.observability.metrics.MetricsRegistry` of counters,
  gauges, and histograms (bounded aggregates), and optionally
* an :class:`~repro.observability.events.EventLog`.

Cluster telemetry (:mod:`repro.observability.telemetry`) keeps nothing
here: its snapshot is a view over the coordinator's state.

``Observability.report()`` assembles the whole-job view that
``Job.metrics()`` returns and ``--mrs-metrics-json`` dumps; slaves ship
a registry snapshot and their span to the master on the existing
task-completion RPC, so the master's report covers the entire cluster.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.tracing import PHASES, TaskSpan, Tracer, merge_rows
from repro.observability.events import EventLog
from repro.observability import export
from repro.util.timing import summarize_seconds

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "EventLog",
    "TaskSpan",
    "Tracer",
    "Observability",
    "export",
]

#: Span duration keys that count as user compute.
_COMPUTE_EVENTS = ("map", "reduce")

#: Roles whose startup means "boot to first task" rather than
#: "coordinator ready" (they do not own a job; they serve one).
_EXECUTOR_ROLES = frozenset({"slave", "worker"})


class Observability:
    """Per-backend bundle of tracer + registry + events."""

    def __init__(self, role: str = "serial"):
        self.role = role
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        #: Structured event log; None until a consumer asks for events
        #: (so the hot emit path ``events = obs.events; if events is
        #: not None: ...`` costs one attribute check when disabled).
        self.events: Optional[EventLog] = None
        self._created_at = time.perf_counter()
        #: Seconds from backend construction to ready-to-run, set once
        #: by :meth:`mark_startup_complete` (the paper's "~2 s" number).
        self.startup_seconds: Optional[float] = None
        #: What the startup number measures for this role: coordinators
        #: report construction→ready; slaves/workers report their own
        #: boot→first-task latency.
        self.startup_kind = (
            "boot_to_first_task" if role in _EXECUTOR_ROLES else "ready"
        )
        #: dataset id -> operation kind ("map"/"reduce"/"reducemap").
        self._operation_kinds: Dict[str, str] = {}
        #: Per-source registries accumulated by :meth:`merge_remote`
        #: (one per slave/worker), so the report can break the job down
        #: by contributing process without double-counting the main
        #: registry.
        self._sources: Dict[str, MetricsRegistry] = {}

    # -- lifecycle ------------------------------------------------------

    def enable_events(
        self,
        path: Optional[str] = None,
        unbounded: bool = False,
    ) -> EventLog:
        """Turn on the structured event log (idempotent).

        ``path`` adds the crash-safe JSONL sink (``--mrs-event-log``);
        ``unbounded=True`` keeps the full stream in memory instead of a
        bounded ring (needed when a trace will be built from it at job
        end).
        """
        if self.events is None:
            from repro.observability.events import DEFAULT_RING_SIZE

            self.events = EventLog(
                self.role,
                path=path,
                ring_size=None if unbounded else DEFAULT_RING_SIZE,
            )
        return self.events

    def configure_from_opts(self, opts: Any) -> None:
        """Wire the observability CLI flags into this bundle.

        Called by every backend constructor; a missing/None ``opts``
        (programmatic construction) leaves everything disabled.
        """
        if opts is None:
            return
        event_log = getattr(opts, "event_log", None)
        trace = getattr(opts, "trace", None)
        if event_log or trace:
            # A requested trace is built from memory at job end, so the
            # ring must keep the whole stream.
            self.enable_events(path=event_log, unbounded=bool(trace))
        # The transfer plane is process-global; mirror its counters
        # into this backend's registry so fetch traffic performed by
        # this process shows up in the report.
        from repro.comm import transfer

        transfer.install_registry(self.registry)

    def mark_startup_complete(self) -> float:
        """Record startup as complete (idempotent); returns the time."""
        if self.startup_seconds is None:
            self.startup_seconds = time.perf_counter() - self._created_at
            self.registry.gauge("startup.seconds").set(self.startup_seconds)
            events = self.events
            if events is not None:
                events.emit(
                    "job.startup",
                    seconds=self.startup_seconds,
                    kind=self.startup_kind,
                )
        return self.startup_seconds

    def note_operation(self, dataset_id: str, kind: str) -> None:
        """Remember a dataset's operation kind for the report."""
        self._operation_kinds[dataset_id] = kind
        self.registry.counter(f"operations.{kind}").inc()

    def note_submitted(self, dataset: Any) -> None:
        """Record a computed dataset's submission: its operation kind,
        a ``queued`` mark on every task span, and the matching
        ``dataset.submitted`` / ``task.queued`` events."""
        self.note_operation(dataset.id, dataset.operation.kind)
        events = self.events
        if events is not None:
            events.emit(
                "dataset.submitted",
                dataset_id=dataset.id,
                kind=dataset.operation.kind,
                tasks=dataset.ntasks,
            )
        for task_index in dataset.task_indices():
            self.tracer.span(dataset.id, task_index).mark("queued")
            if events is not None:
                events.emit(
                    "task.queued", dataset_id=dataset.id, task_index=task_index
                )

    def merge_remote(
        self, snapshot: Dict[str, Any], source: Optional[str] = None
    ) -> None:
        """Fold a remote process's registry snapshot into this one.

        ``source``, when given, names the contributing process (e.g.
        ``"slave-3"`` or ``"worker-1"``); the snapshot is additionally
        accumulated into a per-source registry so the report can
        attribute work to individual slaves/workers.  Each snapshot is
        merged into the main registry exactly once regardless.
        """
        self.registry.merge_snapshot(snapshot)
        if source:
            registry = self._sources.get(source)
            if registry is None:
                registry = self._sources[source] = MetricsRegistry()
            registry.merge_snapshot(snapshot)

    # -- reporting ------------------------------------------------------

    def task_stats(self, dataset_id: str) -> Dict[str, float]:
        """Count/total/mean/max wall seconds of a dataset's committed
        tasks (zeros once the dataset's spans have been folded)."""
        return summarize_seconds(
            [
                span.seconds
                for span in self.tracer.spans_for(dataset_id)
                if span.seconds is not None
            ]
        )

    def operations_breakdown(
        self, rows: Optional[Dict[str, Dict[str, Any]]] = None
    ) -> list:
        """Per-dataset wall/compute/overhead rows derived from spans
        (and from the folded rows of released datasets)."""
        if rows is None:
            rows = self.tracer.rows()
        operations = []
        for dataset_id, row in sorted(rows.items()):
            durations = row["durations"]
            wall = row["wall_seconds"]
            compute = sum(durations.get(e, 0.0) for e in _COMPUTE_EVENTS)
            operations.append(
                {
                    "dataset_id": dataset_id,
                    "kind": self._operation_kinds.get(dataset_id),
                    "tasks": row["tasks"],
                    "wall_seconds": wall,
                    "compute_seconds": compute,
                    "serialize_seconds": durations.get("serialize", 0.0),
                    "transfer_seconds": durations.get("transfer", 0.0),
                    "overhead_seconds": max(0.0, wall - compute),
                }
            )
        return operations

    def status_view(self, namespace: Optional[str] = None) -> Dict[str, Any]:
        """A cheap live snapshot for tickers and status endpoints.

        Derived from the tracer and registry only (no remote calls):
        tasks done/total, an ETA extrapolated from the task-duration
        histogram, and the live overhead fraction — the in-flight
        version of the report's summary numbers.

        ``namespace`` restricts the view to one job's datasets — the
        per-job view a multi-job server exposes at ``GET /jobs/<id>``
        (job namespaces prefix every dataset id).  Its cost depends on
        that job's datasets only, not on every job ever run.
        """
        totals = merge_rows(self.tracer.rows(namespace).values())
        wall = totals["wall_seconds"]
        compute = sum(
            totals["durations"].get(e, 0.0) for e in _COMPUTE_EVENTS
        )
        mean = self.registry.histogram("task.seconds").mean
        remaining = max(0, totals["tasks"] - totals["done"])
        status: Dict[str, Any] = {
            "role": self.role,
            "startup_seconds": self.startup_seconds,
            "tasks": {
                "total": totals["tasks"],
                "done": totals["done"],
                "running": totals["running"],
            },
            "eta_seconds": (remaining * mean) if (mean and remaining) else None,
            "overhead_fraction": (
                max(0.0, wall - compute) / wall if wall > 0 else None
            ),
            "phases": _phases(totals),
        }
        events = self.events
        if events is not None:
            status["events"] = {
                "last_seq": events.last_seq,
                "log_path": events.path,
            }
        return status

    def report(self) -> Dict[str, Any]:
        """The aggregate whole-job view (see export module docstring)."""
        rows = self.tracer.rows()
        totals = merge_rows(rows.values())
        operations = self.operations_breakdown(rows)
        compute = sum(op["compute_seconds"] for op in operations)
        overhead = sum(op["overhead_seconds"] for op in operations)
        return {
            "version": export.REPORT_VERSION,
            "role": self.role,
            "startup": {
                "seconds": self.startup_seconds,
                "kind": self.startup_kind,
            },
            "phases": _phases(totals),
            "metrics": self.registry.snapshot(),
            "sources": {
                name: registry.snapshot()
                for name, registry in sorted(self._sources.items())
            },
            "spans": self.tracer.snapshot(),
            "operations": operations,
            "summary": {
                "startup_seconds": self.startup_seconds or 0.0,
                "compute_seconds": compute,
                "overhead_seconds": overhead,
                "task_count": totals["tasks"],
            },
        }


def _phases(totals: Dict[str, Any]) -> Dict[str, float]:
    """Per-phase seconds of a summary row, in lifecycle order."""
    durations = totals["durations"]
    return {phase: durations[phase] for phase in PHASES if phase in durations}
