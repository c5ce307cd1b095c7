"""The Job facade handed to a program's ``run`` method.

A ``Job`` creates datasets and queues operations on a runtime backend.
Crucially, ``map_data``/``reduce_data``/``reducemap_data`` return
*immediately* with a lazy dataset handle — the backend starts the work
as soon as its inputs are ready, and the program only blocks when it
calls :meth:`Job.wait`.  This is the paper's key iterative-MapReduce
optimization (section IV-A): an iterative program can queue several
iterations ahead and run its convergence check *in parallel* with the
computation of subsequent iterations.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import dataset as ds

KeyValue = Tuple[Any, Any]


class Backend:
    """Runtime interface a Job drives.

    Implementations: serial, mock-parallel, and the master (distributed)
    runtime.  ``submit`` registers a computed dataset for execution;
    ``wait`` blocks until at least one of the given datasets is
    complete and returns the complete subset.
    """

    #: Reasonable default number of output splits when the program does
    #: not specify one (the master backend overrides this with the
    #: cluster size).
    default_splits = 1

    #: Default for Job.wait's timeout when the caller passes None —
    #: wired from ``--mrs-timeout`` so a stuck distributed job returns
    #: control instead of hanging forever.
    default_timeout = None

    def submit(self, dataset: ds.ComputedData, job: "Job") -> None:
        raise NotImplementedError

    def wait(
        self,
        datasets: Sequence[ds.BaseDataset],
        job: "Job",
        timeout: Optional[float] = None,
    ) -> List[ds.BaseDataset]:
        raise NotImplementedError

    def progress(self, dataset: ds.BaseDataset) -> float:
        return 1.0 if dataset.complete else 0.0

    #: Observability bundle (set by concrete backends); None means the
    #: backend records nothing and ``metrics`` returns an empty report.
    observability = None

    def remove_data(self, dataset_id: str, job: "Job") -> None:
        """Release a dataset's storage (memory and spill files)."""

    def metrics(self) -> Dict[str, Any]:
        """The backend's aggregate metrics report (see
        :mod:`repro.observability`)."""
        if self.observability is None:
            return {}
        return self.observability.report()

    def task_stats(self, dataset_id: str) -> Dict[str, float]:
        """Count/total/mean/max wall seconds of a dataset's tasks."""
        if self.observability is None:
            return {}
        return self.observability.task_stats(dataset_id)

    def status(self) -> Dict[str, Any]:
        """A cheap live snapshot of the running job: tasks done/total,
        ETA, overhead fraction.  The coordinator extends this view
        with its scheduler and worker state."""
        if self.observability is None:
            return {}
        return self.observability.status_view()

    def telemetry(self) -> Dict[str, Any]:
        """The cluster telemetry snapshot: the latest health sample per
        source, shuffle-skew summaries, straggler candidates.  Empty
        when the backend records nothing; a single-process backend has
        only its own health.  The coordinator fills in the rest."""
        if self.observability is None:
            return {}
        from repro.observability.telemetry import snapshot

        return snapshot(self.observability.role)

    def close(self) -> None:
        """Shut down any runtime resources."""


class JobError(Exception):
    """A queued operation failed irrecoverably."""


class Job:
    """Dataset factory and synchronization point for a running program."""

    def __init__(
        self,
        backend: Backend,
        program: Any = None,
        namespace: Optional[str] = None,
    ):
        self.backend = backend
        self.program = program
        #: Job namespace (service mode): every dataset id and affinity
        #: group this job creates is prefixed ``<namespace>.`` so many
        #: jobs can share one backend without colliding.
        self.namespace = namespace
        self._datasets: Dict[str, ds.BaseDataset] = {}

    def _group(self, group: Optional[str]) -> Optional[str]:
        """Namespace an affinity group so concurrent jobs never share
        scheduler affinity state."""
        if group and self.namespace:
            return f"{self.namespace}.{group}"
        return group

    # -- dataset registry ---------------------------------------------

    def get_dataset(self, dataset_id: str) -> ds.BaseDataset:
        return self._datasets[dataset_id]

    def _register(self, dataset: ds.BaseDataset) -> ds.BaseDataset:
        if dataset.id in self._datasets:
            raise ValueError(f"duplicate dataset id {dataset.id!r}")
        self._datasets[dataset.id] = dataset
        return dataset

    # -- input datasets -------------------------------------------------

    def local_data(
        self,
        pairs: Sequence[KeyValue],
        splits: Optional[int] = None,
        parter: Optional[Callable[[Any, int], int]] = None,
        affinity_group: Optional[str] = None,
    ) -> ds.LocalData:
        """Create a dataset from literal key-value pairs."""
        if splits is None:
            splits = self.backend.default_splits
        data = ds.LocalData(
            pairs,
            splits=splits,
            parter=parter,
            affinity_group=self._group(affinity_group),
            namespace=self.namespace,
        )
        return self._register(data)

    def file_data(
        self,
        file_urls: Sequence[str],
        affinity_group: Optional[str] = None,
    ) -> ds.FileData:
        """Create a dataset over existing files; one task per file."""
        data = ds.FileData(
            list(file_urls),
            affinity_group=self._group(affinity_group),
            namespace=self.namespace,
        )
        return self._register(data)

    # -- computed datasets ----------------------------------------------

    def map_data(
        self,
        input: ds.BaseDataset,
        mapper: Any,
        splits: Optional[int] = None,
        parter: Any = None,
        combiner: Any = None,
        outdir: Optional[str] = None,
        format: Optional[str] = None,
        affinity_group: Optional[str] = None,
        blocking: Sequence[ds.BaseDataset] = (),
        key_serializer: Optional[str] = None,
        value_serializer: Optional[str] = None,
    ) -> ds.MapData:
        """Queue a map operation over ``input``; returns immediately."""
        splits = splits or self.backend.default_splits
        data = ds.make_map_data(
            input,
            mapper,
            splits=splits,
            parter=parter,
            combiner=combiner,
            outdir=outdir,
            format_ext=format,
            affinity_group=self._group(
                affinity_group or f"map:{ds.callable_name(mapper)}"
            ),
            blocking_ids=[b.id for b in blocking],
            key_serializer=key_serializer,
            value_serializer=value_serializer,
            namespace=self.namespace,
        )
        self._register(data)
        self.backend.submit(data, self)
        return data

    def reduce_data(
        self,
        input: ds.BaseDataset,
        reducer: Any,
        splits: Optional[int] = None,
        parter: Any = None,
        outdir: Optional[str] = None,
        format: Optional[str] = None,
        affinity_group: Optional[str] = None,
        blocking: Sequence[ds.BaseDataset] = (),
        key_serializer: Optional[str] = None,
        value_serializer: Optional[str] = None,
    ) -> ds.ReduceData:
        """Queue a reduce operation over ``input``; returns immediately."""
        splits = splits or self.backend.default_splits
        data = ds.make_reduce_data(
            input,
            reducer,
            splits=splits,
            parter=parter,
            outdir=outdir,
            format_ext=format,
            affinity_group=self._group(
                affinity_group or f"reduce:{ds.callable_name(reducer)}"
            ),
            blocking_ids=[b.id for b in blocking],
            key_serializer=key_serializer,
            value_serializer=value_serializer,
            namespace=self.namespace,
        )
        self._register(data)
        self.backend.submit(data, self)
        return data

    def reducemap_data(
        self,
        input: ds.BaseDataset,
        reducer: Any,
        mapper: Any,
        splits: Optional[int] = None,
        parter: Any = None,
        combiner: Any = None,
        outdir: Optional[str] = None,
        format: Optional[str] = None,
        affinity_group: Optional[str] = None,
        blocking: Sequence[ds.BaseDataset] = (),
        key_serializer: Optional[str] = None,
        value_serializer: Optional[str] = None,
    ) -> ds.ReduceMapData:
        """Queue a fused reduce+map operation (one barrier per iteration)."""
        splits = splits or self.backend.default_splits
        data = ds.make_reducemap_data(
            input,
            reducer,
            mapper,
            splits=splits,
            parter=parter,
            combiner=combiner,
            outdir=outdir,
            format_ext=format,
            affinity_group=self._group(
                affinity_group
                or f"reducemap:{ds.callable_name(reducer)}"
                f"+{ds.callable_name(mapper)}"
            ),
            blocking_ids=[b.id for b in blocking],
            key_serializer=key_serializer,
            value_serializer=value_serializer,
            namespace=self.namespace,
        )
        self._register(data)
        self.backend.submit(data, self)
        return data

    # -- synchronization --------------------------------------------------

    def wait(
        self,
        *datasets: ds.BaseDataset,
        timeout: Optional[float] = None,
    ) -> List[ds.BaseDataset]:
        """Block until at least one given dataset completes.

        Returns the (possibly larger) list of given datasets that are
        complete.  Raises :class:`JobError` if any of them failed.
        ``timeout=None`` falls back to the backend's default (the
        ``--mrs-timeout`` option), if any.
        """
        if not datasets:
            return []
        if timeout is None:
            timeout = self.backend.default_timeout
        done = self.backend.wait(list(datasets), self, timeout=timeout)
        for dataset in done:
            if dataset.error:
                raise JobError(
                    f"dataset {dataset.id} failed: {dataset.error}"
                )
        return done

    def progress(self, dataset: ds.BaseDataset) -> float:
        """Fraction of the dataset's tasks that have completed (0..1)."""
        return self.backend.progress(dataset)

    def metrics(self) -> Dict[str, Any]:
        """Whole-job metrics: startup time, per-phase wall clock,
        per-task spans, and per-operation overhead.  Distributed runs
        include slave-side numbers aggregated by the master."""
        return self.backend.metrics()

    def status(self) -> Dict[str, Any]:
        """A live snapshot of the job: tasks done/total/running, an ETA
        from the task-duration histogram, the overhead fraction so far,
        and on the parallel backends outstanding tasks, dataset rows
        and worker counts.  This is the same view ``--mrs-progress``
        renders and ``--mrs-status-http`` serves."""
        return self.backend.status()

    def telemetry(self) -> Dict[str, Any]:
        """The cluster telemetry view: the latest health sample per
        slave/worker, shuffle-skew summaries per dataset, and straggler
        candidates."""
        return self.backend.telemetry()

    def remove_data(self, dataset: ds.BaseDataset) -> None:
        """Free a dataset that no further operation will read.

        Long iterative runs must release old iterations or the job's
        footprint grows linearly with iteration count.
        """
        self.backend.remove_data(dataset.id, self)
        dataset.clear()
