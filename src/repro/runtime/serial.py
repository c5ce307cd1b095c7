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
from repro.observability.events import emit_task_events
from repro.observability.profiling import profiler_from_opts
from repro.runtime import taskrunner


class SerialBackend(Backend):
    default_splits = 1
    role = "serial"

    def __init__(self, program=None, opts=None):
        self.program = program
        if opts is None:
            opts = getattr(program, "opts", None)
        self.observability = Observability(role=self.role)
        self.observability.configure_from_opts(opts)
        #: --mrs-profile-tasks N: keep the N slowest tasks' profiles.
        self.profiler = profiler_from_opts(opts)
        self._queue: List[ComputedData] = []
        self._completed_tasks = {}

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
        reduce_kind = dataset.operation.kind in ("reduce", "reducemap")
        try:
            for task_index in dataset.task_indices():
                span = obs.tracer.span(dataset.id, task_index)
                # Gathering a reduce task's input is the shuffle: map
                # outputs were partitioned at write time, so all that
                # remains is collecting each split's buckets.  Any
                # file-backed buckets stay URL-only here; the reduce
                # merge streams them (their read cost lands in the
                # "reduce" phase).
                factory = self._bucket_factory(dataset, task_index)
                gathering = time.perf_counter()
                input_buckets = taskrunner.materialize_input_buckets(
                    input_dataset, task_index, streaming=reduce_kind
                )
                started = time.perf_counter()
                if reduce_kind:
                    span.add_duration("shuffle", started - gathering)
                span.mark("started", started)
                if events is not None:
                    events.emit(
                        "task.started",
                        t=started,
                        dataset_id=dataset.id,
                        task_index=task_index,
                    )
                out_buckets = self._execute(
                    dataset, task_index, input_buckets, factory, span
                )
                span.seconds = time.perf_counter() - started
                obs.registry.histogram("task.seconds").observe(span.seconds)
                for bucket in out_buckets:
                    self._commit_bucket(dataset, bucket)
                span.mark("committed")
                obs.registry.counter("tasks.completed").inc()
                self._completed_tasks[dataset.id] = (
                    self._completed_tasks.get(dataset.id, 0) + 1
                )
                if events is not None:
                    emit_task_events(events, span)
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
        """Run one task, under cProfile with --mrs-profile-tasks."""
        if self.profiler is None:
            return taskrunner.execute_task(
                self.program, dataset, task_index, input_buckets, factory,
                span=span,
            )
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
        )

    def remove_data(self, dataset_id: str, job: Job) -> None:
        # In-memory data is freed by Job.remove_data via dataset.clear().
        self._completed_tasks.pop(dataset_id, None)
