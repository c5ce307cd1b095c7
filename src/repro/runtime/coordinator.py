"""The coordinator: one control plane for every parallel runtime.

A coordinator turns scheduler state into dispatched tasks and folds
completions and failures back into datasets.  It owns the lock and
condition variable, the dataset table, the affinity-aware
:class:`~repro.runtime.scheduler.Scheduler` (which keeps each dataset's
queued tasks, done count and failure strikes) and every decision made
from them: submission, dispatch, descriptor building, stale-report
rejection, bucket registration, metrics folding, the 3-strike failure
policy with error propagation, and ``remove_data``, the one way a
dataset leaves every table.

A *transport* subclass supplies what talking to workers takes: the
master (:mod:`repro.runtime.master`, XML-RPC to slave processes,
exec'd or forked) is the one in the program; the tests' in-memory
``FakeTransport`` is the other:

======================================  ================================
hook                                    meaning
======================================  ================================
``role`` / ``tmpdir_prefix``            observability role, owned rundir
``_live_workers()``                     ids that may be handed a task
``_send(worker_id, descriptor)``        deliver a task; raising loses
                                        the worker (``_lose_worker``)
``_output_dir(dataset)``                where intermediate output lives
``_spill_url(path)``                    how a spilled path is published
``_job_program`` / ``_job_registry``    service-mode job scoping
``_task_accepted(worker_id, task)``     lineage bookkeeping
``_release_worker_copies(dataset_id)``  worker-local data release
``_transport_status(status)``           transport-only ``status()`` facts
``_shutdown_transport()``               stop workers and servers
======================================  ================================

plus its own liveness machinery, which reports into the coordinator
through :meth:`Coordinator.task_done`, :meth:`Coordinator.task_failed`
and :meth:`Coordinator._strike`.
"""

from __future__ import annotations

import logging
import os
import shutil
import tempfile
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.comm import protocol, transfer
from repro.core.dataset import BaseDataset, ComputedData
from repro.core.job import Backend, Job
from repro.io.bucket import Bucket
from repro.observability import MetricsRegistry, Observability, skew
from repro.observability.events import emit_task_events
from repro.observability.telemetry import snapshot as telemetry_snapshot
from repro.runtime import dataplane
from repro.runtime.failures import (
    MAX_TASK_FAILURES,
    propagate_error,
    release_dataset,
)
from repro.runtime.scheduler import ScheduledDataset, Scheduler, TaskId

logger = logging.getLogger("repro.coordinator")


class Coordinator(Backend):
    """Scheduler-driven Job backend; see the module docstring for the
    transport hooks a subclass fills in."""

    role = "coordinator"
    tmpdir_prefix = "mrs_"

    def __init__(self, program: Any, opts: Any):
        self.program = program
        self.opts = opts
        tmpdir = getattr(opts, "tmpdir", None)
        self._owns_tmpdir = tmpdir is None
        self.tmpdir = tmpdir or tempfile.mkdtemp(prefix=self.tmpdir_prefix)
        os.makedirs(self.tmpdir, exist_ok=True)
        #: --mrs-timeout: default deadline for Job.wait calls.
        self.default_timeout = getattr(opts, "timeout", None)

        self.observability = Observability(role=self.role)
        self.observability.configure_from_opts(opts)

        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self.scheduler = Scheduler(
            affinity=not getattr(opts, "no_affinity", False)
        )
        #: Source (``slave-3``) -> its latest health sample;
        #: later fields win, so a ping's RTT and a done's sample share
        #: one entry.
        self._health: Dict[str, Dict[str, float]] = {}
        self._datasets: Dict[str, BaseDataset] = {}
        #: Task each worker is currently executing (absent = idle);
        #: set together with the task span's ``started`` mark.
        self._busy: Dict[int, TaskId] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Transport hooks
    # ------------------------------------------------------------------

    def _live_workers(self) -> Iterable[int]:
        """Ids of workers that may be handed a task (caller holds the
        lock)."""
        raise NotImplementedError

    def _send(self, worker_id: int, descriptor: Dict[str, Any]) -> None:
        """Deliver a task descriptor (called outside the lock)."""
        raise NotImplementedError

    def _lose_worker(self, worker_id: int, reason: str) -> None:
        """A send to ``worker_id`` failed: stop scheduling onto it."""
        raise NotImplementedError

    def _shutdown_transport(self) -> None:
        """Stop workers, threads and servers (``close``, once)."""
        raise NotImplementedError

    def _output_dir(self, dataset: ComputedData) -> Optional[str]:
        """Directory for a dataset's intermediate output buckets;
        ``None`` keeps them on the producing worker's local disk."""
        return os.path.join(self.tmpdir, dataset.id)

    def _spill_url(self, path: str) -> str:
        """The URL workers fetch a coordinator-side spill file by."""
        return "file:" + path

    def _job_program(
        self, dataset_id: str
    ) -> Tuple[Optional[str], Optional[List[str]]]:
        """``(program_spec, program_args)`` riding on the dataset's
        task descriptors (caller holds the lock)."""
        return None, None

    def _job_registry(self, dataset_id: str) -> Optional[MetricsRegistry]:
        """The isolated per-job registry fed alongside the whole-run
        one, if any (caller holds the lock)."""
        return None

    def _task_accepted(self, worker_id: int, task: TaskId) -> None:
        """An accepted completion's output now lives with
        ``worker_id`` (caller holds the lock)."""

    def _release_worker_copies(self, dataset_id: str) -> None:
        """Drop worker-local copies of a released dataset (called
        outside the lock; best effort)."""

    def _transport_status(self, status: Dict[str, Any]) -> None:
        """Add transport-only facts to a :meth:`status` snapshot
        (caller holds the lock)."""

    # ------------------------------------------------------------------
    # Backend interface (called from the program's main thread)
    # ------------------------------------------------------------------

    def submit(self, dataset: ComputedData, job: Job) -> None:
        self.observability.note_submitted(dataset)
        deps = [
            job.get_dataset(dep_id)
            for dep_id in (dataset.input_id, *dataset.blocking_ids)
        ]
        with self._lock:
            self._datasets[dataset.id] = dataset
            for dep in deps:
                self._datasets.setdefault(dep.id, dep)
                # Non-computed inputs (LocalData/FileData) are complete
                # on arrival; tell the scheduler so dependents can
                # activate.
                if dep.complete and not self.scheduler.is_complete(dep.id):
                    self.scheduler.mark_input_complete(dep.id)
            self.scheduler.add_dataset(
                ScheduledDataset(
                    dataset.id,
                    ntasks=dataset.ntasks,
                    affinity_group=dataset.affinity_group,
                    input_id=dataset.input_id,
                    blocking_ids=dataset.blocking_ids,
                    job_id=getattr(job, "namespace", None),
                )
            )
            # An input that already failed can never complete: fail
            # this dataset now rather than leave its waiters hanging.
            failed = [dep.id for dep in deps if dep.error]
            if failed:
                self._fail(dataset, f"input dataset {failed[0]} failed")
            self._drain_scheduler()
        self._dispatch()

    def _drain_scheduler(self) -> None:
        """Publish the zero-task datasets that completed without any
        task report (caller holds the lock)."""
        events = self.observability.events
        for dataset_id in self.scheduler.take_completed_datasets():
            dataset = self._datasets.get(dataset_id)
            if dataset is not None and not dataset.complete:
                dataset.complete = True
                logger.info("dataset %s complete (no tasks)", dataset_id)
                if events is not None:
                    events.emit(
                        "dataset.complete", dataset_id=dataset_id, tasks=0
                    )
        self._cond.notify_all()

    def wait(
        self,
        datasets: Sequence[BaseDataset],
        job: Job,
        timeout: Optional[float] = None,
    ) -> List[BaseDataset]:
        deadline = None if timeout is None else time.monotonic() + timeout
        self._dispatch()
        with self._cond:
            while True:
                # Wait semantics: return once at least one target
                # dataset is finished; report every finished target.
                done = [d for d in datasets if d.complete or d.error]
                if done:
                    return done
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return done
                    self._cond.wait(remaining)
                else:
                    self._cond.wait(1.0)

    def progress(self, dataset: BaseDataset) -> float:
        if dataset.complete:
            return 1.0
        with self._lock:
            return self.scheduler.progress(dataset.id)

    def status(self) -> Dict[str, Any]:
        """The live view of the job, one shape on every transport:
        the observability snapshot plus ``outstanding`` tasks, one
        ``datasets`` row per dataset and ``workers`` counts, and
        whatever :meth:`_transport_status` adds.  Served as JSON at
        ``GET /status`` and read by ``/metrics`` and the progress
        ticker."""
        # Computed from spans outside the lock: a status reader must
        # not hold up dispatch.
        status = self.observability.status_view()
        with self._lock:
            live = list(self._live_workers())
            status["outstanding"] = self.scheduler.outstanding()
            status["datasets"] = self._dataset_rows()
            status["workers"] = {
                "alive": len(live),
                "ready": len(live),
                "busy": sum(1 for worker_id in live if worker_id in self._busy),
            }
            self._transport_status(status)
        return status

    def _dataset_rows(self, prefix: str = "") -> List[Dict[str, Any]]:
        """Status rows of the datasets under ``prefix`` (caller holds
        the lock)."""
        return [
            {
                "id": dataset.id,
                "complete": bool(dataset.complete),
                "error": dataset.error,
                "progress": self.scheduler.progress(dataset.id),
            }
            for ds_id, dataset in self._datasets.items()
            if ds_id.startswith(prefix)
        ]

    def telemetry(self) -> Dict[str, Any]:
        """The cluster telemetry snapshot: the latest health sample per
        source and shuffle skew over the buckets each dataset holds
        now."""
        with self._lock:
            latest = {
                source: dict(sample) for source, sample in self._health.items()
            }
            buckets = {
                ds_id: dataset.existing_buckets()
                for ds_id, dataset in self._datasets.items()
            }
        return telemetry_snapshot(
            self.role,
            self.tmpdir,
            latest,
            skew.summary(buckets),
        )

    def _note_health(self, source: str, sample: Dict[str, float]) -> None:
        """Fold a health sample into ``source``'s latest one (caller
        holds the lock)."""
        self._health.setdefault(source, {}).update(sample)

    def remove_data(self, dataset_id: str, job: Optional[Job] = None) -> None:
        """Release a dataset: the one way it leaves the coordinator.

        Under the lock it leaves every table (its queued tasks go, an
        in-flight one is abandoned, its spans fold into one summary
        row), and every unfinished dataset that still reads it fails,
        so no consumer waits on data that is gone.  Only then are
        worker-local copies released and the run directory deleted: a
        task that finishes later finds no dataset, and
        :meth:`task_done` sweeps its late output.
        """
        with self._lock:
            failed = release_dataset(self._datasets, dataset_id)
            self.scheduler.forget_dataset(dataset_id)
            self.observability.tracer.fold(dataset_id)
            events = self.observability.events
            for failed_id in failed:
                self.scheduler.cancel_dataset(failed_id)
                if events is not None:
                    events.emit(
                        "dataset.failed",
                        dataset_id=failed_id,
                        error=self._datasets[failed_id].error,
                    )
            self._cond.notify_all()
        self._release_worker_copies(dataset_id)
        shutil.rmtree(os.path.join(self.tmpdir, dataset_id), ignore_errors=True)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._shutdown_transport()
        # The one place a coordinator process closes its idle pooled
        # transfer connections: no half-open keep-alive socket outlives
        # the backend that fetched over it.
        transfer.get_pool().close()
        if self._owns_tmpdir:
            shutil.rmtree(self.tmpdir, ignore_errors=True)
            return
        # Run directories of failed/canceled datasets are unreadable by
        # definition, and canceled tasks already in flight may have
        # spilled buckets after the cancel — without this sweep those
        # files outlive the job in a caller-owned tmpdir.  User-facing
        # outdirs are never touched.
        with self._lock:
            doomed = [
                ds_id
                for ds_id, dataset in self._datasets.items()
                if dataset.error and not getattr(dataset, "outdir", None)
            ]
        for ds_id in doomed:
            shutil.rmtree(os.path.join(self.tmpdir, ds_id), ignore_errors=True)

    # ------------------------------------------------------------------
    # Completions and failures (called from the transport's threads)
    # ------------------------------------------------------------------

    def task_done(
        self,
        worker_id: int,
        dataset_id: str,
        task_index: int,
        bucket_urls: Any,
        seconds: float = 0.0,
        metrics: Optional[Dict[str, Any]] = None,
    ) -> None:
        task: TaskId = (dataset_id, task_index)
        reported = protocol.parse_bucket_urls(bucket_urls)
        seconds = float(seconds)
        cleanup_dir: Optional[str] = None
        with self._lock:
            if self._busy.get(worker_id) == task:
                del self._busy[worker_id]
            dataset = self._datasets.get(dataset_id)
            # The scheduler rejects stale duplicate reports (e.g. from a
            # worker presumed dead whose tasks were reassigned).
            accepted, dataset_complete = self.scheduler.task_done(
                worker_id, task
            )
            if dataset is None or dataset.error:
                # Released or canceled dataset: the assignment is
                # cleared, but the output is unwanted — a straggler
                # finishing after a cancel/remove_data would otherwise
                # leave fresh spill files in the run dir forever.  User
                # outdirs are never swept.
                if dataset is None or not getattr(dataset, "outdir", None):
                    cleanup_dir = os.path.join(self.tmpdir, dataset_id)
            else:
                if accepted:
                    self._task_accepted(worker_id, task)
                    for split, url, url_sorted, size in reported:
                        bucket = Bucket(
                            source=task_index, split=split, url=url
                        )
                        bucket.url_sorted = url_sorted
                        bucket.url_size = size
                        dataset.add_bucket(bucket)
                    self._record_task_metrics(
                        worker_id, dataset_id, task_index, seconds, metrics
                    )
                if dataset_complete:
                    dataset.complete = True
                    logger.info("dataset %s complete", dataset_id)
                    events = self.observability.events
                    if events is not None:
                        events.emit("dataset.complete", dataset_id=dataset_id)
                self._drain_scheduler()
            self._cond.notify_all()
        if cleanup_dir is not None:
            shutil.rmtree(cleanup_dir, ignore_errors=True)
        self._dispatch()

    def _record_task_metrics(
        self,
        worker_id: int,
        dataset_id: str,
        task_index: int,
        seconds: float,
        metrics: Optional[Dict[str, Any]],
    ) -> None:
        """Fold one accepted completion (and its piggybacked worker
        metrics) into the whole-job view.  Caller holds the lock."""
        obs = self.observability
        source = f"slave-{worker_id}"
        obs.registry.counter("tasks.completed").inc()
        obs.registry.histogram("task.seconds").observe(seconds)
        payload = protocol.parse_task_metrics(metrics)
        job_registry = self._job_registry(dataset_id)
        if job_registry is not None:
            job_registry.counter("tasks.completed").inc()
            job_registry.histogram("task.seconds").observe(seconds)
            job_registry.merge_snapshot(payload["registry"])
        # The worker's marks (offsets from its own task start) land in
        # this process's span for the task, re-anchored at the dispatch
        # timestamp: raw stamps never cross processes.
        span = obs.tracer.span(dataset_id, task_index)
        span.absorb(payload["span"])
        span.seconds = seconds
        span.mark("committed")
        obs.merge_remote(payload["registry"], source=source)
        if payload["health"]:
            self._note_health(source, payload["health"])
        events = obs.events
        if events is not None:
            emit_task_events(events, span, slave=worker_id)

    def task_failed(
        self, worker_id: int, dataset_id: str, task_index: int, message: str
    ) -> None:
        task: TaskId = (dataset_id, task_index)
        logger.warning(
            "task %s failed on slave %d: %s", task, worker_id, message
        )
        self.observability.registry.counter("tasks.failed").inc()
        with self._lock:
            job_registry = self._job_registry(dataset_id)
            if job_registry is not None:
                job_registry.counter("tasks.failed").inc()
            if self._busy.get(worker_id) == task:
                del self._busy[worker_id]
            # A fetch failure while the input dataset is being
            # re-executed (lineage recovery) is expected, not a strike:
            # requeue without burning the failure budget.
            dataset = self._datasets.get(dataset_id)
            input_dataset = self._datasets.get(
                getattr(dataset, "input_id", None)
            )
            free_retry = (
                "FetchError" in message
                and input_dataset is not None
                and not input_dataset.complete
                and not input_dataset.error
            )
            events = self.observability.events
            if events is not None:
                events.emit(
                    "task.failed",
                    dataset_id=dataset_id,
                    task_index=task_index,
                    slave=worker_id,
                    error=message,
                    free_retry=free_retry,
                )
            if not free_retry:
                self._strike(task, "failed", f"; last: {message}")
            # Always release the attempt.  A struck-out task's dataset
            # is cancelled by now, so the scheduler does not requeue it.
            self.scheduler.task_failed(worker_id, task)
            self._note_requeued(task, free_retry)
            self._cond.notify_all()
        self._dispatch()

    def _strike(self, task: TaskId, what: str, detail: str = "") -> None:
        """Charge one failed attempt to ``task``'s budget (caller holds
        the lock).  The first time the budget is exhausted the dataset
        fails as ``"task <i> <what> <n> times<detail>"``, along with
        every transitive dependent, and all of them are cancelled.  A
        released dataset's attempt is not counted: its strikes left
        with it."""
        dataset = self._datasets.get(task[0])
        if dataset is None:
            return
        strikes = self.scheduler.strikes(task, add=1)
        if strikes >= MAX_TASK_FAILURES and not dataset.error:
            self._fail(
                dataset, f"task {task[1]} {what} {strikes} times{detail}"
            )

    def _fail(self, dataset: BaseDataset, error: str) -> None:
        """Fail ``dataset`` and every unfinished dataset that
        (transitively) reads it, so a wait() on any of them returns
        instead of hanging, and cancel them all: their queued tasks can
        only waste workers, and their in-flight ones are not requeued
        (caller holds the lock)."""
        dataset.error = error
        for failed_id in [
            dataset.id, *propagate_error(self._datasets, dataset.id)
        ]:
            self.scheduler.cancel_dataset(failed_id)
        events = self.observability.events
        if events is not None:
            events.emit("dataset.failed", dataset_id=dataset.id, error=error)

    def _note_requeued(self, task: TaskId, free_retry: bool = False) -> None:
        """Emit ``task.requeued`` if the task is back in the queue — not
        when its dataset failed or was released (caller holds the
        lock)."""
        events = self.observability.events
        if events is not None and self.scheduler.is_pending(task):
            events.emit(
                "task.requeued",
                dataset_id=task[0],
                task_index=task[1],
                failures=self.scheduler.strikes(task),
                free_retry=free_retry,
            )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        """Hand pending tasks to idle workers (sends happen outside the
        lock; a failed send loses the worker)."""
        while True:
            to_send: List[Tuple[int, TaskId, Dict[str, Any]]] = []
            with self._lock:
                if self._closed:
                    return
                for worker_id in self._live_workers():
                    if worker_id in self._busy:
                        continue
                    task = self.scheduler.next_task(worker_id)
                    if task is None:
                        continue
                    descriptor = self._build_descriptor(task)
                    self._busy[worker_id] = task
                    self.observability.tracer.span(*task).mark("started")
                    to_send.append((worker_id, task, descriptor))
            if not to_send:
                return
            # First work handed out: the job is effectively started even
            # if the caller never blocked waiting for workers.
            self.observability.mark_startup_complete()
            events = self.observability.events
            for worker_id, (dataset_id, task_index), descriptor in to_send:
                self.observability.registry.counter("tasks.dispatched").inc()
                if events is not None:
                    events.emit(
                        "task.started",
                        dataset_id=dataset_id,
                        task_index=task_index,
                        slave=worker_id,
                    )
                try:
                    self._send(worker_id, descriptor)
                except Exception as exc:
                    self._lose_worker(worker_id, f"start_task failed: {exc}")

    def _build_descriptor(self, task: TaskId) -> Dict[str, Any]:
        """Build the wire descriptor for a task (caller holds the lock)."""
        dataset_id, task_index = task
        dataset = self._datasets[dataset_id]
        assert isinstance(dataset, ComputedData)
        input_dataset = self._datasets[dataset.input_id]
        input_urls = []
        input_sorted = []
        for bucket in input_dataset.buckets_for_split(task_index):
            if bucket.url is None:
                self._spill_bucket(input_dataset, bucket)
            input_urls.append(bucket.url)
            input_sorted.append(bucket.url_sorted)
        user_output = dataset.outdir is not None
        if user_output:
            outdir: Optional[str] = dataset.outdir
            ext = dataset.format_ext or "txt"
        else:
            outdir = self._output_dir(dataset)
            ext = dataset.format_ext or "mrsb"
        program_spec, program_args = self._job_program(dataset_id)
        return protocol.make_task_descriptor(
            program_spec=program_spec,
            program_args=program_args,
            dataset_id=dataset_id,
            task_index=task_index,
            op_dict=dataset.operation.to_dict(),
            input_urls=input_urls,
            outdir=outdir,
            format_ext=ext,
            user_output=user_output,
            key_serializer=dataset.key_serializer,
            value_serializer=dataset.value_serializer,
            input_key_serializer=getattr(input_dataset, "key_serializer", None),
            input_value_serializer=getattr(
                input_dataset, "value_serializer", None
            ),
            input_sorted=input_sorted,
        )

    def _spill_bucket(self, dataset: BaseDataset, bucket: Bucket) -> None:
        """Write a coordinator-resident bucket to the data plane so
        workers can read it (LocalData pairs live only in this
        process's memory)."""
        path = dataplane.spill_bucket(dataset, bucket, self.tmpdir)
        bucket.url = self._spill_url(path)
        events = self.observability.events
        if events is not None:
            events.emit(
                "spill.bucket",
                dataset_id=dataset.id,
                split=bucket.split,
                url=bucket.url,
                path=path,
            )
