"""Cluster telemetry: worker health, stragglers, and surfacing.

The metrics/events planes answer *per-job* questions.  This module
answers *cluster* questions — is a slave slow, is a bucket fat, is a
task an outlier relative to its siblings — the inputs the ROADMAP's
speculative-execution item needs to pick victims.  It keeps no store of
its own: every fact is a view over state the coordinator already holds.

* :class:`HealthSampler` — cheap process-health snapshots (CPU time,
  RSS, open fds, disk free on the run dir, task throughput) built from
  ``/proc``/``os``/``shutil`` with graceful fallbacks, **no psutil**.
  The slave and the pool worker each own one; its samples piggyback on
  the done and ping messages already flowing, and the coordinator keeps
  the latest per source.
* :class:`StragglerScorer` — a running task exceeding ``factor`` × the
  median run time of its dataset's committed tasks is a straggler
  candidate.  It reads the coordinator's task spans and keeps no
  timings of its own
  (:meth:`~repro.runtime.coordinator.Coordinator.straggler_candidates`).
* :func:`snapshot` — the ``job.telemetry()`` shape: latest health per
  source, skew per dataset (:func:`repro.observability.skew.summary`),
  straggler candidates.
* :func:`render_prometheus` — the live ``GET /metrics`` view (Prometheus
  text exposition) on the ``--mrs-status-http`` surface; ``GET
  /status`` serves the same state as JSON.
"""

from __future__ import annotations

import os
import re
import shutil
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Minimum seconds between one process's health samples.
DEFAULT_INTERVAL = 5.0

#: Version of the :func:`snapshot` shape.
SNAPSHOT_VERSION = 2

#: Straggler threshold: multiple of the running median task time.
DEFAULT_STRAGGLER_FACTOR = 1.5

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


# ---------------------------------------------------------------------------
# Health sampling (no psutil: /proc + os + shutil, fallbacks everywhere)
# ---------------------------------------------------------------------------


def _cpu_seconds() -> float:
    """User+system CPU seconds of this process."""
    times = os.times()
    return float(times.user + times.system)


def _rss_bytes() -> Optional[float]:
    """Resident set size, from /proc/self/statm (Linux) or getrusage."""
    try:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
        return float(pages * os.sysconf("SC_PAGE_SIZE"))
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    try:
        import resource

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB; macOS reports bytes.  Either way it is a
        # peak, which is an acceptable degraded answer.
        return float(rss * 1024 if rss < 1 << 32 else rss)
    except Exception:
        return None


def _open_fds() -> Optional[float]:
    try:
        return float(len(os.listdir("/proc/self/fd")))
    except OSError:
        return None


def _disk_free_bytes(path: Optional[str]) -> Optional[float]:
    try:
        return float(shutil.disk_usage(path or os.getcwd()).free)
    except OSError:
        return None


def sample_health(rundir: Optional[str] = None) -> Dict[str, float]:
    """One health snapshot of the calling process (dict of floats).

    Keys whose underlying source is unavailable on this platform are
    simply absent — consumers treat the sample as a sparse record.
    """
    sample: Dict[str, float] = {
        "t": time.time(),
        "cpu_seconds": _cpu_seconds(),
    }
    for key, value in (
        ("rss_bytes", _rss_bytes()),
        ("open_fds", _open_fds()),
        ("disk_free_bytes", _disk_free_bytes(rundir)),
    ):
        if value is not None:
            sample[key] = value
    return sample


class HealthSampler:
    """Throttled health snapshots for one process.

    ``task_counter`` (a zero-argument callable returning the process's
    cumulative completed-task count) turns consecutive samples into a
    ``task_throughput`` rate.  :meth:`maybe_sample` returns ``None``
    when called again within ``interval`` seconds — the piggyback call
    sites (every done RPC, every ping) stay O(1) between samples.
    """

    def __init__(
        self,
        rundir: Optional[str] = None,
        interval: float = DEFAULT_INTERVAL,
        task_counter: Optional[Callable[[], float]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.rundir = rundir
        self.interval = float(interval)
        self.task_counter = task_counter
        self._clock = clock
        self._lock = threading.Lock()
        self._last_at: Optional[float] = None
        self._last_tasks: Optional[float] = None

    def sample(self) -> Dict[str, float]:
        """An unconditional sample (also resets the throttle window)."""
        now = self._clock()
        sample = sample_health(self.rundir)
        try:
            tasks = float(self.task_counter()) if self.task_counter else None
        except Exception:
            tasks = None
        with self._lock:
            if tasks is not None:
                sample["tasks_completed"] = tasks
                # A previous count implies a previous sample time.
                if self._last_tasks is not None and now > self._last_at:
                    sample["task_throughput"] = max(
                        0.0, (tasks - self._last_tasks) / (now - self._last_at)
                    )
                self._last_tasks = tasks
            self._last_at = now
        return sample

    def maybe_sample(self) -> Optional[Dict[str, float]]:
        """A sample, or ``None`` while the throttle window is open."""
        with self._lock:
            last = self._last_at
        if last is not None and self._clock() - last < self.interval:
            return None
        return self.sample()


# ---------------------------------------------------------------------------
# Straggler scoring
# ---------------------------------------------------------------------------


class StragglerScorer:
    """Flags running tasks that exceed ``factor`` × the median run time
    of their dataset's committed tasks.

    A function of what the coordinator already records, evaluated under
    its lock: *running* is its worker -> task map, *since when* each
    running task's last ``started`` mark, the median that of the
    dataset's committed spans (last ``started`` to ``committed``; a
    failed or abandoned dispatch never committed, so it cannot poison
    it).  With one committed task the median *is* that task.  All the
    scorer remembers is which dispatches it has already reported.
    """

    def __init__(self, factor: float = DEFAULT_STRAGGLER_FACTOR):
        self.factor = float(factor)
        #: (dataset_id, task_index) -> the ``started`` stamp of the
        #: dispatch already reported; a redispatch is a new candidate.
        self._flagged: Dict[Any, float] = {}
        self.flagged_total = 0

    def forget_dataset(self, dataset_id: str) -> None:
        self._flagged = {
            key: started
            for key, started in self._flagged.items()
            if key[0] != dataset_id
        }

    def candidates(
        self,
        running: Dict[Any, Any],
        tracer: Any,
        now: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """Running tasks currently over the straggler threshold, most
        severe first: task, slave, elapsed seconds, dataset median and
        their ratio — what a speculative re-launcher needs to pick
        victims.  ``running`` maps worker id -> ``(dataset_id,
        task_index)``; ``now`` is on the spans' clock.
        """
        if now is None:
            now = time.perf_counter()
        by_dataset: Dict[str, Any] = {}
        out: List[Dict[str, Any]] = []
        for slave_id, task in running.items():
            dataset_id, task_index = task
            if dataset_id not in by_dataset:
                spans = tracer.spans_for(dataset_id)
                by_dataset[dataset_id] = (
                    {span.task_index: span for span in spans},
                    _median_run_seconds(spans),
                )
            spans_by_index, median = by_dataset[dataset_id]
            span = spans_by_index.get(task_index)
            started = None if span is None else span.last_time("started")
            if started is None or median <= 0.0:
                continue
            elapsed = max(0.0, now - started)
            if elapsed <= self.factor * median:
                continue
            first_flag = self._flagged.get(task) != started
            if first_flag:
                self._flagged[task] = started
                self.flagged_total += 1
            out.append(
                {
                    "dataset_id": dataset_id,
                    "task_index": task_index,
                    "slave": slave_id,
                    "elapsed_seconds": elapsed,
                    "median_seconds": median,
                    "ratio": elapsed / median,
                    "first_flag": first_flag,
                }
            )
        out.sort(key=lambda c: c["ratio"], reverse=True)
        return out


def _median_run_seconds(spans: List[Any]) -> float:
    """Median last-``started`` -> ``committed`` seconds of the spans
    whose latest dispatch committed; 0.0 when none has."""
    runs = []
    for span in spans:
        started = span.last_time("started")
        committed = span.last_time("committed")
        if started is not None and committed is not None and committed >= started:
            runs.append(committed - started)
    if not runs:
        return 0.0
    # Not statistics.median: importing it pulls in fractions/decimal,
    # ~2 MB and ~10 ms in every slave and worker process.
    runs.sort()
    mid = len(runs) // 2
    return runs[mid] if len(runs) % 2 else 0.5 * (runs[mid - 1] + runs[mid])


# ---------------------------------------------------------------------------
# The job.telemetry() snapshot
# ---------------------------------------------------------------------------


def snapshot(
    role: str,
    rundir: Optional[str] = None,
    latest: Optional[Dict[str, Dict[str, float]]] = None,
    skew: Optional[Dict[str, Dict[str, Any]]] = None,
    stragglers: Sequence[Dict[str, Any]] = (),
    flagged_total: int = 0,
) -> Dict[str, Any]:
    """The ``job.telemetry()`` payload.

    ``latest`` maps each remote source to its latest health sample; this
    process's own sample is taken now, under ``role`` (disk free of
    ``rundir``), so even a single-process backend reports one source.
    """
    latest = dict(latest or {})
    latest[role] = sample_health(rundir)
    return {
        "version": SNAPSHOT_VERSION,
        "role": role,
        "latest": dict(sorted(latest.items())),
        "skew": dict(skew or {}),
        "stragglers": {
            "factor": DEFAULT_STRAGGLER_FACTOR,
            "candidates": list(stragglers),
            "flagged_total": int(flagged_total),
        },
    }


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")

#: latest-sample health keys -> (metric suffix, prometheus type).
_HEALTH_METRICS = (
    ("cpu_seconds", "mrs_slave_cpu_seconds_total", "counter"),
    ("rss_bytes", "mrs_slave_rss_bytes", "gauge"),
    ("open_fds", "mrs_slave_open_fds", "gauge"),
    ("disk_free_bytes", "mrs_slave_disk_free_bytes", "gauge"),
    ("task_throughput", "mrs_slave_task_throughput", "gauge"),
    ("tasks_completed", "mrs_slave_tasks_completed_total", "counter"),
    ("rtt_seconds", "mrs_slave_ping_rtt_seconds", "gauge"),
)

#: skew-row keys -> gauge name (``None`` rows are skipped).
_SKEW_METRICS = (
    ("max_over_median_bytes", "mrs_skew_max_over_median"),
    ("gini_bytes", "mrs_skew_gini"),
)


def _metric_name(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _escape_label(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt_value(value: Any) -> str:
    try:
        number = float(value)
    except (TypeError, ValueError):
        return "0"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class _PromWriter:
    """Accumulates exposition lines, emitting each # TYPE once."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._typed: set = set()

    def add(
        self,
        name: str,
        value: Any,
        labels: Optional[Dict[str, Any]] = None,
        mtype: str = "gauge",
    ) -> None:
        if name not in self._typed:
            self._typed.add(name)
            self.lines.append(f"# TYPE {name} {mtype}")
        label_text = ""
        if labels:
            inner = ",".join(
                f'{key}="{_escape_label(val)}"'
                for key, val in sorted(labels.items())
            )
            label_text = "{" + inner + "}"
        self.lines.append(f"{name}{label_text} {_fmt_value(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_prometheus(backend: Any) -> str:
    """The ``GET /metrics`` body: Prometheus text exposition of the
    backend's live status, registry, and telemetry plane."""
    writer = _PromWriter()
    try:
        status = backend.status() or {}
    except Exception:
        status = {}
    try:
        telemetry = backend.telemetry() or {}
    except Exception:
        telemetry = {}

    writer.add("mrs_up", 1)
    tasks = status.get("tasks") or {}
    writer.add("mrs_tasks_total", tasks.get("total", 0))
    writer.add("mrs_tasks_done", tasks.get("done", 0))
    writer.add("mrs_tasks_running", tasks.get("running", 0))

    for row in status.get("slaves") or ():
        labels = {"slave": f"slave-{row['id']}"}
        writer.add("mrs_slave_up", 1 if row["alive"] else 0, labels)
        writer.add("mrs_slave_busy", 1 if row["busy"] else 0, labels)

    for source, sample in (telemetry.get("latest") or {}).items():
        labels = {"slave": source}
        for key, metric, mtype in _HEALTH_METRICS:
            if key in sample:
                writer.add(metric, sample[key], labels, mtype)

    for row in status.get("datasets") or ():
        labels = {"dataset": row["id"]}
        writer.add("mrs_dataset_progress", row["progress"], labels)
        writer.add("mrs_dataset_complete", 1 if row["complete"] else 0, labels)

    for dataset_id, summary in (telemetry.get("skew") or {}).items():
        labels = {"dataset": dataset_id}
        for key, metric in _SKEW_METRICS:
            if summary[key] is not None:
                writer.add(metric, summary[key], labels)
        writer.add("mrs_skew_bytes_total", summary["bytes_total"], labels, "counter")

    stragglers = telemetry.get("stragglers") or {}
    writer.add(
        "mrs_straggler_candidates",
        len(stragglers.get("candidates") or ()),
    )
    writer.add(
        "mrs_stragglers_flagged_total",
        stragglers.get("flagged_total", 0),
        mtype="counter",
    )

    observability = getattr(backend, "observability", None)
    if observability is not None:
        snapshot = observability.registry.snapshot()
        for name, value in sorted((snapshot.get("counters") or {}).items()):
            writer.add(
                f"mrs_{_metric_name(name)}_total", value, mtype="counter"
            )
        for name, value in sorted((snapshot.get("gauges") or {}).items()):
            writer.add(f"mrs_{_metric_name(name)}", value)
        for name, hist in sorted(
            (snapshot.get("histograms") or {}).items()
        ):
            base = f"mrs_{_metric_name(name)}"
            writer.add(f"{base}_count", hist.get("count", 0), mtype="counter")
            writer.add(f"{base}_sum", hist.get("total", 0.0), mtype="counter")
    return writer.text()
