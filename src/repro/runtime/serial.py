"""Serial implementation: sequential, deterministic, in-process.

The serial backend honours the queueing API (operations are submitted
lazily) but executes everything in submission order inside ``wait``.
Because submission order respects dataset dependencies by construction
(a program must hold a dataset handle before it can consume it), a
simple FIFO sweep is a valid topological order.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.core.dataset import BaseDataset, ComputedData
from repro.core.job import Backend, Job
from repro.observability import Observability
from repro.observability.events import span_phase_marks
from repro.observability.profiling import profiler_from_opts
from repro.runtime import taskrunner
from repro.util.timing import summarize_seconds

#: Phase name each operation kind's compute is attributed to.
PHASE_FOR_KIND = {"map": "map", "reduce": "reduce", "reducemap": "reduce"}


def _emit_task_events(events, span, dataset_id, task_index):
    """Emit phase + committed events for a locally executed task.

    Phase boundaries are re-stamped at the span's recorded mark times
    (anchored at its first mark) so the timeline places them where they
    actually happened, not when they were derived.
    """
    anchor = span.event_time("queued")
    if anchor is None:
        anchor = span.event_time("started")
    if anchor is not None:
        for boundary in span_phase_marks(span, include_fetch=False):
            events.emit(
                "task.phase",
                t=anchor + boundary["offset"],
                dataset_id=dataset_id,
                task_index=task_index,
                phase=boundary["phase"],
                seconds=boundary["seconds"],
            )
    events.emit(
        "task.committed",
        t=span.event_time("committed"),
        dataset_id=dataset_id,
        task_index=task_index,
    )


class SerialBackend(Backend):
    default_splits = 1
    role = "serial"

    def __init__(self, program=None, opts=None):
        self.program = program
        if opts is None:
            opts = getattr(program, "opts", None)
        #: --mrs-profile DIR: cProfile each task into DIR.
        self.profile_dir = getattr(opts, "profile_dir", None)
        self.observability = Observability(role=self.role)
        self.observability.configure_from_opts(opts)
        #: --mrs-profile-tasks N: keep the N slowest tasks' profiles.
        self.profiler = profiler_from_opts(opts)
        self._queue: List[ComputedData] = []
        self._completed_tasks = {}
        #: Wall seconds per completed task, per dataset (same
        #: profiling surface as the master backend).
        self._task_seconds = {}

    def submit(self, dataset: ComputedData, job: Job) -> None:
        self._queue.append(dataset)
        self.observability.note_submitted(dataset)

    def wait(
        self,
        datasets: Sequence[BaseDataset],
        job: Job,
        timeout: Optional[float] = None,
    ) -> List[BaseDataset]:
        # Startup for the serial backend is everything before the first
        # task can run: construction to the first wait.
        self.observability.mark_startup_complete()
        deadline = None if timeout is None else time.monotonic() + timeout
        # Run queued operations in order until every wanted dataset is
        # complete (or the queue empties).
        while self._queue and not all(d.complete or d.error for d in datasets):
            # Tasks are not preemptible, so the deadline is checked
            # between dataset computations: on expiry the caller gets
            # whatever subset finished in time, like the coordinator's
            # wait.
            if deadline is not None and time.monotonic() >= deadline:
                break
            self._compute(self._queue.pop(0), job)
        return [d for d in datasets if d.complete or d.error]

    def progress(self, dataset: BaseDataset) -> float:
        if dataset.complete:
            return 1.0
        done = self._completed_tasks.get(dataset.id, 0)
        ntasks = getattr(dataset, "ntasks", 1) or 1
        return done / ntasks

    def task_stats(self, dataset_id: str):
        """Count/total/mean/max wall seconds of a dataset's tasks."""
        return summarize_seconds(self._task_seconds.get(dataset_id, []))

    def _output_dir(self, dataset: ComputedData) -> Optional[str]:
        """Directory a dataset's output buckets are written to as
        files; None keeps them in memory."""
        return dataset.outdir

    def _bucket_factory(self, dataset: ComputedData, task_index: int):
        outdir = self._output_dir(dataset)
        if outdir:
            return taskrunner.file_bucket_factory(
                outdir,
                dataset.id,
                task_index,
                ext=dataset.format_ext or "mrsb",
                key_serializer=dataset.key_serializer,
                value_serializer=dataset.value_serializer,
            )
        return taskrunner.memory_bucket_factory(task_index)

    def _commit_bucket(self, dataset: ComputedData, bucket) -> None:
        """Register one finished output bucket with its dataset."""
        dataset.add_bucket(bucket)

    def _compute(self, dataset: ComputedData, job: Job) -> None:
        if dataset.complete or dataset.error:
            return
        input_dataset = job.get_dataset(dataset.input_id)
        if input_dataset.error:
            # Propagate upstream failure instead of computing garbage.
            dataset.error = (
                f"input dataset {input_dataset.id} failed: "
                f"{input_dataset.error}"
            )
            return
        if not input_dataset.complete:
            raise RuntimeError(
                f"dataset {dataset.id} scheduled before input "
                f"{input_dataset.id} completed; submission order violated"
            )
        obs = self.observability
        events = obs.events
        phase = PHASE_FOR_KIND.get(dataset.operation.kind, "map")
        try:
            for task_index in dataset.task_indices():
                span = obs.tracer.span(dataset.id, task_index)
                # Gathering a reduce task's input is the shuffle: map
                # outputs were partitioned at write time, so all that
                # remains is collecting each split's buckets.  Any
                # file-backed buckets stay URL-only here; the reduce
                # merge streams them (their read cost lands in the
                # "reduce" phase).
                if phase == "reduce":
                    with obs.phases.measure("shuffle"):
                        input_buckets = taskrunner.materialize_input_buckets(
                            input_dataset, task_index, streaming=True
                        )
                else:
                    input_buckets = taskrunner.materialize_input_buckets(
                        input_dataset, task_index
                    )
                factory = self._bucket_factory(dataset, task_index)
                started = time.perf_counter()
                span.mark("started", started)
                if events is not None:
                    events.emit(
                        "task.started",
                        t=started,
                        dataset_id=dataset.id,
                        task_index=task_index,
                    )
                with obs.phases.measure(phase):
                    out_buckets = self._execute(
                        dataset, task_index, input_buckets, factory, span
                    )
                seconds = time.perf_counter() - started
                self._task_seconds.setdefault(dataset.id, []).append(seconds)
                obs.registry.histogram("task.seconds").observe(seconds)
                for bucket in out_buckets:
                    self._commit_bucket(dataset, bucket)
                span.mark("committed")
                obs.registry.counter("tasks.completed").inc()
                self._completed_tasks[dataset.id] = (
                    self._completed_tasks.get(dataset.id, 0) + 1
                )
                if events is not None:
                    _emit_task_events(events, span, dataset.id, task_index)
            dataset.complete = True
            if events is not None:
                events.emit("dataset.complete", dataset_id=dataset.id)
        except taskrunner.TaskError as exc:
            obs.registry.counter("tasks.failed").inc()
            dataset.error = str(exc)
            if events is not None:
                events.emit(
                    "task.failed", dataset_id=dataset.id, error=str(exc)
                )
                events.emit(
                    "dataset.failed", dataset_id=dataset.id, error=str(exc)
                )

    def _execute(self, dataset, task_index, input_buckets, factory, span=None):
        """Run one task, optionally under cProfile (--mrs-profile or
        --mrs-profile-tasks)."""
        if self.profiler is not None and not self.profile_dir:
            # Targeted profiling: keep only the N slowest tasks' dumps.
            return self.profiler.run(
                taskrunner.execute_task,
                self.program,
                dataset,
                task_index,
                input_buckets,
                factory,
                span=span,
                profile_dataset_id=dataset.id,
                profile_task_index=task_index,
                profile_span=span,
                profile_events=self.observability.events,
            )
        if not self.profile_dir:
            return taskrunner.execute_task(
                self.program, dataset, task_index, input_buckets, factory,
                span=span,
            )
        import cProfile
        import os

        os.makedirs(self.profile_dir, exist_ok=True)
        profiler = cProfile.Profile()
        try:
            return profiler.runcall(
                taskrunner.execute_task,
                self.program,
                dataset,
                task_index,
                input_buckets,
                factory,
                span=span,
            )
        finally:
            profiler.dump_stats(
                os.path.join(
                    self.profile_dir, f"{dataset.id}_{task_index}.prof"
                )
            )

    def remove_data(self, dataset_id: str, job: Job) -> None:
        # In-memory data is freed by Job.remove_data via dataset.clear().
        self._completed_tasks.pop(dataset_id, None)
