"""Datasets: bucket grids produced and consumed by MapReduce operations.

A dataset is a grid of buckets addressed by ``(source, split)``.  Tasks
consume one *split column* each: task *j* of an operation reads every
bucket ``(i, j)`` of its input dataset and writes buckets ``(j, s)``
into the output dataset, for each output split *s*.  This layout is
what makes the dependency structure of figure 1/figure 2 of the paper
explicit: a reduce task depends on one bucket from every map task.

Dataset subclasses:

* :class:`LocalData` — literal pairs supplied by the master program.
* :class:`FileData` — one bucket per input URL/file, one task per file.
* :class:`MapData` / :class:`ReduceData` / :class:`ReduceMapData` —
  lazily *computed* datasets; submitting one to a
  :class:`~repro.core.job.Job` queues the operation (section IV-A:
  programs "queue up map and reduce operations so that each is ready to
  begin as soon as the previous operation finishes").
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.operations import (
    MapOperation,
    Operation,
    ReduceMapOperation,
    ReduceOperation,
    callable_name,
)
from repro.io import urls as url_io
from repro.io.bucket import Bucket

KeyValue = Tuple[Any, Any]

_dataset_counter = itertools.count()
_counter_lock = threading.Lock()


def _next_dataset_id(prefix: str, namespace: Optional[str] = None) -> str:
    """Allocate a process-unique dataset id.

    ``namespace`` (a job id in service mode) becomes a ``.``-separated
    prefix — ``job-1.map_3``.  A dot rather than a slash because the id
    also appears verbatim in flat bucket filenames
    (``{dataset_id}_{source}_{split}.{ext}``) and as a single directory
    level in the run dir.
    """
    with _counter_lock:
        serial = next(_dataset_counter)
    if namespace:
        return f"{namespace}.{prefix}_{serial}"
    return f"{prefix}_{serial}"


def namespace_of(dataset_id: str) -> Optional[str]:
    """The job namespace of a dataset id (``job-1`` of ``job-1.map_3``),
    or None for an id made without one — the inverse of
    :func:`_next_dataset_id`."""
    namespace, sep, _ = dataset_id.partition(".")
    return namespace if sep and namespace else None


class BaseDataset:
    """Common bucket-grid behaviour for all dataset kinds."""

    def __init__(
        self,
        dataset_id: Optional[str] = None,
        splits: int = 1,
        affinity_group: Optional[str] = None,
        prefix: str = "ds",
        key_serializer: Optional[str] = None,
        value_serializer: Optional[str] = None,
        namespace: Optional[str] = None,
    ):
        if splits < 0:
            raise ValueError(f"splits must be non-negative, got {splits}")
        self.id = dataset_id or _next_dataset_id(prefix, namespace)
        #: Job namespace this dataset belongs to (service mode), if any.
        self.namespace = namespace
        self.splits = splits
        #: Scheduler hint: tasks of datasets sharing an affinity group
        #: and task index prefer the same slave across iterations.
        self.affinity_group = affinity_group or self.id
        #: Registered serializer names used when this dataset's buckets
        #: are persisted in the binary format (None = pickle).  Typed
        #: serializers skip pickle on hot paths — a real Mrs feature.
        self.key_serializer = key_serializer
        self.value_serializer = value_serializer
        self._buckets: Dict[Tuple[int, int], Bucket] = {}
        #: True once every bucket's data is final.
        self.complete = False
        #: Set if computation failed irrecoverably.
        self.error: Optional[str] = None

    # -- bucket access ------------------------------------------------

    def bucket(self, source: int, split: int) -> Bucket:
        """Get-or-create the bucket at grid position (source, split)."""
        key = (source, split)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = Bucket(source=source, split=split)
            self._buckets[key] = bucket
        return bucket

    def add_bucket(self, bucket: Bucket) -> None:
        self._buckets[(bucket.source, bucket.split)] = bucket

    def existing_buckets(self) -> List[Bucket]:
        """All buckets that currently exist, in grid order."""
        return [self._buckets[k] for k in sorted(self._buckets)]

    def buckets_for_split(self, split: int) -> List[Bucket]:
        """Every bucket in split column ``split``, ordered by source."""
        found = [
            bucket
            for (source, s), bucket in sorted(self._buckets.items())
            if s == split
        ]
        return found

    @property
    def n_sources(self) -> int:
        if not self._buckets:
            return 0
        return 1 + max(source for source, _ in self._buckets)

    # -- data access ----------------------------------------------------

    def _fetch(self, bucket: Bucket) -> None:
        bucket.collect(
            url_io.fetch_pairs(
                bucket.url,
                key_serializer=self.key_serializer,
                value_serializer=self.value_serializer,
            )
        )

    def fetchall(self) -> None:
        """Ensure every bucket's pairs are resident in memory.

        Buckets that only carry a URL (data produced remotely or
        spilled to disk) are fetched and materialized.
        """
        for bucket in self.existing_buckets():
            if len(bucket) == 0 and bucket.url:
                self._fetch(bucket)

    def iterdata(self) -> Iterator[KeyValue]:
        """Iterate all pairs in grid order (fetches remote buckets)."""
        for bucket in self.existing_buckets():
            if len(bucket) == 0 and bucket.url:
                self._fetch(bucket)
            yield from bucket

    def data(self) -> List[KeyValue]:
        """Materialize all pairs as a list."""
        return list(self.iterdata())

    def splitdata(self, split: int) -> List[KeyValue]:
        """Materialize the pairs of one split column."""
        out: List[KeyValue] = []
        for bucket in self.buckets_for_split(split):
            if len(bucket) == 0 and bucket.url:
                self._fetch(bucket)
            out.extend(bucket)
        return out

    def clear(self) -> None:
        """Drop all in-memory pairs (URLs are kept)."""
        for bucket in self.existing_buckets():
            bucket.clean()

    def remove_source(self, source: int) -> int:
        """Drop every bucket produced by task ``source`` (the data was
        lost; the task will be re-executed).  Returns buckets removed."""
        doomed = [key for key in self._buckets if key[0] == source]
        for key in doomed:
            del self._buckets[key]
        return len(doomed)

    def __repr__(self) -> str:
        state = "complete" if self.complete else "pending"
        return (
            f"{type(self).__name__}(id={self.id!r}, splits={self.splits}, "
            f"buckets={len(self._buckets)}, {state})"
        )


class LocalData(BaseDataset):
    """Pairs supplied directly by the master program.

    The pairs are partitioned immediately with ``parter`` (defaulting
    to round-robin, which preserves input order within each split and
    gives deterministic task contents independent of key hashing).
    """

    def __init__(
        self,
        pairs: Sequence[KeyValue],
        splits: int = 1,
        parter: Optional[Callable[[Any, int], int]] = None,
        dataset_id: Optional[str] = None,
        affinity_group: Optional[str] = None,
        namespace: Optional[str] = None,
    ):
        super().__init__(
            dataset_id, splits, affinity_group, prefix="local",
            namespace=namespace,
        )
        pairs = list(pairs)
        if pairs and splits == 0:
            raise ValueError("local_data with pairs requires splits >= 1")
        for index, pair in enumerate(pairs):
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise TypeError(
                    f"local_data expects (key, value) pairs; item {index} "
                    f"is {pair!r}"
                )
            key, _ = pair
            if parter is None:
                split = index % splits
            else:
                split = parter(key, splits)
                if not 0 <= split < splits:
                    raise ValueError(
                        f"partitioner returned split {split} for key {key!r}, "
                        f"outside range(0, {splits})"
                    )
            self.bucket(0, split).addpair(pair)
        # Ensure all split columns exist even if empty, so downstream
        # operations create one task per split.
        for split in range(splits):
            self.bucket(0, split)
        self.complete = True


class FileData(BaseDataset):
    """One bucket (and hence one downstream task) per input URL.

    This is the input layout that lets Mrs ingest the ragged Project
    Gutenberg directory tree directly — any iterable of paths works,
    there is no single-directory requirement (section V-B).
    """

    def __init__(
        self,
        file_urls: Sequence[str],
        dataset_id: Optional[str] = None,
        affinity_group: Optional[str] = None,
        namespace: Optional[str] = None,
    ):
        file_urls = list(file_urls)
        if not file_urls:
            raise ValueError("file_data requires at least one input file")
        super().__init__(
            dataset_id, splits=len(file_urls), affinity_group=affinity_group,
            prefix="file", namespace=namespace,
        )
        for split, url in enumerate(file_urls):
            if "://" not in url and not url.startswith("file:"):
                url = "file:" + url
            bucket = Bucket(source=0, split=split, url=url)
            self.add_bucket(bucket)
        self.complete = True


class ComputedData(BaseDataset):
    """A dataset produced by running an operation over an input dataset."""

    def __init__(
        self,
        input_id: str,
        operation: Operation,
        ntasks: int,
        dataset_id: Optional[str] = None,
        affinity_group: Optional[str] = None,
        outdir: Optional[str] = None,
        format_ext: Optional[str] = None,
        blocking_ids: Sequence[str] = (),
        key_serializer: Optional[str] = None,
        value_serializer: Optional[str] = None,
        namespace: Optional[str] = None,
    ):
        super().__init__(
            dataset_id,
            splits=operation.splits,
            affinity_group=affinity_group,
            prefix=operation.kind,
            key_serializer=key_serializer,
            value_serializer=value_serializer,
            namespace=namespace,
        )
        #: Dataset id this operation consumes.
        self.input_id = input_id
        self.operation = operation
        #: One task per input split column.
        self.ntasks = ntasks
        #: Optional directory for persisted output buckets.
        self.outdir = outdir
        #: Output file extension (selects the writer format).
        self.format_ext = format_ext
        #: Extra dataset ids that must complete first (beyond the input).
        self.blocking_ids = list(blocking_ids)

    def task_indices(self) -> range:
        return range(self.ntasks)


class MapData(ComputedData):
    def __init__(self, input_id: str, operation: MapOperation, ntasks: int, **kw):
        super().__init__(input_id, operation, ntasks, **kw)


class ReduceData(ComputedData):
    def __init__(self, input_id: str, operation: ReduceOperation, ntasks: int, **kw):
        super().__init__(input_id, operation, ntasks, **kw)


class ReduceMapData(ComputedData):
    def __init__(self, input_id: str, operation: ReduceMapOperation, ntasks: int, **kw):
        super().__init__(input_id, operation, ntasks, **kw)


def make_map_data(
    input_dataset: BaseDataset,
    mapper: Any,
    splits: int,
    parter: Any = None,
    combiner: Any = None,
    **kw,
) -> MapData:
    op = MapOperation(
        map_name=callable_name(mapper),
        splits=splits,
        parter_name=callable_name(parter),
        combine_name=callable_name(combiner),
    )
    return MapData(input_dataset.id, op, ntasks=input_dataset.splits, **kw)


def make_reduce_data(
    input_dataset: BaseDataset,
    reducer: Any,
    splits: int,
    parter: Any = None,
    **kw,
) -> ReduceData:
    op = ReduceOperation(
        reduce_name=callable_name(reducer),
        splits=splits,
        parter_name=callable_name(parter),
    )
    return ReduceData(input_dataset.id, op, ntasks=input_dataset.splits, **kw)


def make_reducemap_data(
    input_dataset: BaseDataset,
    reducer: Any,
    mapper: Any,
    splits: int,
    parter: Any = None,
    combiner: Any = None,
    **kw,
) -> ReduceMapData:
    op = ReduceMapOperation(
        reduce_name=callable_name(reducer),
        map_name=callable_name(mapper),
        splits=splits,
        parter_name=callable_name(parter),
        combine_name=callable_name(combiner),
    )
    return ReduceMapData(input_dataset.id, op, ntasks=input_dataset.splits, **kw)
