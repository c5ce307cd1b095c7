"""Task execution shared by every runtime.

A *task* is the unit of scheduling: task *j* of an operation consumes
split column *j* of the input dataset and produces one output bucket
per output split.  The same three execution paths (map, reduce,
reduce+map) are used by the serial runtime, the mock-parallel runtime,
slave processes, and the Hadoop simulator's tasktrackers — so a
program is guaranteed to compute the same thing everywhere.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.comm.transfer import bucket_record_streams, open_streams
from repro.core.dataset import ComputedData
from repro.core.operations import (
    MapOperation,
    Operation,
    ReduceMapOperation,
    ReduceOperation,
)
from repro.io.bucket import (
    Bucket,
    FileBucket,
    bucket_sorted_records,
    group_sorted_records,
    merge_sorted_records,
)
from repro.io import urls as url_io
from repro.io.partition import hash_partition_bytes
from repro.util.hashing import _MASK, _MIX, _crc32, key_to_bytes

KeyValue = Tuple[Any, Any]
BucketFactory = Callable[[int], Bucket]


class TaskError(Exception):
    """A user function or the task plumbing raised; carries context."""

    def __init__(self, message: str, cause: Optional[BaseException] = None):
        super().__init__(message)
        self.cause = cause


def memory_bucket_factory(source: int) -> BucketFactory:
    def factory(split: int) -> Bucket:
        return Bucket(source=source, split=split)

    return factory


#: Formats that faithfully round-trip arbitrary key-value pairs.
LOSSLESS_EXTS = frozenset({"mrsb", "mrsx"})


def file_bucket_factory(
    directory: str,
    dataset_id: str,
    source: int,
    ext: str = "mrsb",
    sidecar: bool = False,
    key_serializer: Optional[str] = None,
    value_serializer: Optional[str] = None,
) -> BucketFactory:
    """Output buckets as files: ``<dir>/<dataset>_source_split.<ext>``.

    With ``sidecar=True`` and a lossy ``ext`` (e.g. text), each bucket
    also writes a hidden lossless ``.mrsb`` sidecar and reports *that*
    as its URL, so user-facing output stays readable while the master
    can still fetch authoritative pairs.  ``key_serializer``/
    ``value_serializer`` name registered codecs for the binary format.
    """
    from repro.io.bucket import SidecarFileBucket

    def factory(split: int) -> Bucket:
        path = os.path.join(directory, f"{dataset_id}_{source}_{split}.{ext}")
        if sidecar and ext not in LOSSLESS_EXTS:
            return SidecarFileBucket(
                path, source=source, split=split,
                key_serializer=key_serializer,
                value_serializer=value_serializer,
            )
        return FileBucket(
            path, source=source, split=split,
            key_serializer=key_serializer,
            value_serializer=value_serializer,
        )

    return factory


def _resolve_parter(program: Any, op: Operation) -> Callable[[Any, int], int]:
    parter = op.resolve(program, op.parter_name)
    assert parter is not None
    return parter


def _emit(
    pairs: Iterable[KeyValue],
    parter: Callable[[Any, int], int],
    n_splits: int,
    out: List[Bucket],
) -> None:
    """Partition emitted pairs into ``out``, encoding each key ONCE.

    The canonical key bytes computed here ride into the bucket with the
    pair and are reused by every later hop (sort, group, merge).  This
    is the *custom partitioner* path (see :func:`_emitter`).
    Partitioners with a ``partition_bytes`` fast path get the cached
    bytes; others get the live key.
    """
    bytes_parter = getattr(parter, "partition_bytes", None)
    for pair in pairs:
        if not isinstance(pair, tuple) or len(pair) != 2:
            raise TaskError(
                f"map function must yield (key, value) tuples, got {pair!r}"
            )
        keybytes = key_to_bytes(pair[0])
        if bytes_parter is not None:
            split = bytes_parter(keybytes, n_splits)
        else:
            split = parter(pair[0], n_splits)
        if not 0 <= split < n_splits:
            raise TaskError(
                f"partitioner returned {split} for key {pair[0]!r}, "
                f"outside range(0, {n_splits})"
            )
        out[split].addpair(pair, keybytes)


#: Records the batch emitter accumulates before placing them.
_EMIT_BATCH = 8192


class _HashEmitter:
    """Batch emit for the default hash partitioner.

    Emitted records accumulate in two parallel columns; every
    ``_EMIT_BATCH`` records the batch is placed at once, each record by
    the inlined ``hash_partition_bytes``, so every bucket receives its
    records in emit order — exactly what :func:`_emit` produces.
    """

    __slots__ = ("_staging", "_n", "_keys", "_pairs")

    def __init__(self, staging: List[Bucket], n_splits: int) -> None:
        self._staging = staging
        self._n = n_splits
        self._keys: List[bytes] = []
        self._pairs: List[KeyValue] = []

    def emit(self, pairs: Iterable[KeyValue]) -> None:
        keys = self._keys
        out = self._pairs
        add_key = keys.append
        add_pair = out.append
        for pair in pairs:
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise TaskError(
                    f"map function must yield (key, value) tuples, got {pair!r}"
                )
            key = pair[0]
            if type(key) is str:
                add_key(b"s:" + key.encode("utf-8"))
            else:
                add_key(key_to_bytes(key))
            add_pair(pair)
        if len(keys) >= _EMIT_BATCH:
            self.flush()

    def flush(self) -> None:
        keys = self._keys
        if not keys:
            return
        pairs = self._pairs
        self._keys = []
        self._pairs = []
        staging = self._staging
        n = self._n
        if n == 1:
            staging[0].extend_columns(keys, pairs)
            return
        for keybytes, pair in zip(keys, pairs):
            staging[((_crc32(keybytes) * _MIX) & _MASK) % n].addpair(
                pair, keybytes
            )


def make_hash_emitter(staging: List[Bucket], n_splits: int) -> _HashEmitter:
    """The per-task batch emitter for the default hash partitioner."""
    return _HashEmitter(staging, n_splits)


def _emitter(
    parter: Callable[[Any, int], int], staging: List[Bucket], n_splits: int
) -> Tuple[Callable[[Iterable[KeyValue]], None], Callable[[], None]]:
    """``(emit, flush)`` placing one task's emitted pairs in ``staging``.

    A partitioner whose ``partition_bytes`` is the default hash's — the
    unmodified ``MapReduce.partition`` or ``hash_partition`` itself —
    goes through the batch emitter; any other partitioner is called per
    record by :func:`_emit`.  Both fill the buckets identically.
    """
    if getattr(parter, "partition_bytes", None) is hash_partition_bytes:
        emitter = make_hash_emitter(staging, n_splits)
        return emitter.emit, emitter.flush

    def emit(pairs: Iterable[KeyValue]) -> None:
        _emit(pairs, parter, n_splits, staging)

    return emit, lambda: None


def _emit_one_key(
    keybytes: bytes,
    key: Any,
    values: Iterable[Any],
    parter: Callable[[Any, int], int],
    bytes_parter: Optional[Callable[[bytes, int], int]],
    n_splits: int,
    out: List[Bucket],
) -> None:
    """Emit a reducer's output for one key group.

    Every pair shares the group's key, so the partitioner runs once per
    group (its contract makes the split a pure function of the key) and
    the cached key bytes are reused for every value.
    """
    if bytes_parter is not None:
        split = bytes_parter(keybytes, n_splits)
    else:
        split = parter(key, n_splits)
    if not 0 <= split < n_splits:
        raise TaskError(
            f"partitioner returned {split} for key {key!r}, "
            f"outside range(0, {n_splits})"
        )
    bucket = out[split]
    for value in values:
        bucket.addpair((key, value), keybytes)


def _apply_combiner(
    program: Any, combine_name: Optional[str], op: Operation, buckets: List[Bucket]
) -> List[Bucket]:
    """Run a local reduce over each bucket's groups (the combiner).

    Returns fresh in-memory buckets; callers persist them afterwards so
    that only combined data hits disk/network — that is the entire
    point of a combiner (section V-A).  Grouping is hash-based
    (:meth:`~repro.io.bucket.Bucket.hash_grouped_records`): a combiner
    needs equal keys brought together, not global order, so instead of
    sorting every staged record we group with one dict pass and sort
    only the combined *group list* — which keeps map spills key-sorted
    for the reduce side's streaming merge.  The group's cached key
    bytes flow straight into the fresh bucket, so combining re-encodes
    nothing.
    """
    if combine_name is None:
        return buckets
    combiner = op.resolve(program, combine_name)
    combined: List[Bucket] = []
    for bucket in buckets:
        # Group with one pass and sort only the (much smaller) group
        # list by cached key bytes, then stream the combiner output
        # straight into the fresh bucket in that order — no per-record
        # sort ever runs on either side.
        groups = bucket.sorted_grouped_lists()
        fresh = Bucket(source=bucket.source, split=bucket.split)
        add_key, add_pair = fresh.collector()
        for keybytes, key, values in groups:
            for value in combiner(key, values):
                add_key(keybytes)
                add_pair((key, value))
        combined.append(fresh)
    return combined


def _merged_groups(input_buckets: Sequence[Bucket], span: Any = None):
    """The reduce-side merge: key-ordered ``(keybytes, key, values)``
    groups over every source bucket.

    Every input is :func:`bucket_sorted_records`, local or remote;
    buckets behind HTTP URLs are opened in parallel by
    :func:`repro.comm.transfer.bucket_record_streams` and then read
    straight off their sockets by this merge, exactly as local files
    are read.  Stream order matches bucket order, keeping the merged
    stream — and therefore the reduce output — identical to a
    sequential fetch.
    """
    return group_sorted_records(
        merge_sorted_records(bucket_record_streams(input_buckets, span=span))
    )


def run_map_task(
    program: Any,
    op: MapOperation,
    input_pairs: Iterable[KeyValue],
    bucket_factory: BucketFactory,
    span: Any = None,
) -> List[Bucket]:
    mapper = op.resolve(program, op.map_name)
    parter = _resolve_parter(program, op)
    n = op.splits
    # Map into memory first; the combiner (if any) must see the data
    # before it is persisted.
    staging = [Bucket(split=s) for s in range(n)]
    emit, flush = _emitter(parter, staging, n)
    for key, value in input_pairs:
        result = mapper(key, value)
        if result is not None:
            emit(result)
    flush()
    staging = _apply_combiner(program, op.combine_name, op, staging)
    if span is not None:
        span.mark("map")
    out = _persist(staging, bucket_factory, n)
    if span is not None:
        span.mark("serialize")
    return out


def run_reduce_task(
    program: Any,
    op: ReduceOperation,
    input_buckets: Sequence[Bucket],
    bucket_factory: BucketFactory,
    span: Any = None,
) -> List[Bucket]:
    reducer = op.resolve(program, op.reduce_name)
    parter = _resolve_parter(program, op)
    bytes_parter = getattr(parter, "partition_bytes", None)
    n = op.splits
    staging = [Bucket(split=s) for s in range(n)]
    for keybytes, key, values in _merged_groups(input_buckets, span=span):
        result = reducer(key, values)
        if result is not None:
            _emit_one_key(keybytes, key, result, parter, bytes_parter, n, staging)
    if span is not None:
        span.mark("reduce")
    out = _persist(staging, bucket_factory, n)
    if span is not None:
        span.mark("serialize")
    return out


def run_reducemap_task(
    program: Any,
    op: ReduceMapOperation,
    input_buckets: Sequence[Bucket],
    bucket_factory: BucketFactory,
    span: Any = None,
) -> List[Bucket]:
    reducer = op.resolve(program, op.reduce_name)
    mapper = op.resolve(program, op.map_name)
    parter = _resolve_parter(program, op)
    n = op.splits
    staging = [Bucket(split=s) for s in range(n)]
    emit, flush = _emitter(parter, staging, n)
    for _, key, values in _merged_groups(input_buckets, span=span):
        reduced = reducer(key, values)
        if reduced is None:
            continue
        for value in reduced:
            mapped = mapper(key, value)
            if mapped is not None:
                emit(mapped)
    flush()
    staging = _apply_combiner(program, op.combine_name, op, staging)
    if span is not None:
        # The fused operation's compute is reduce-dominated; attribute
        # it to "reduce" so phase totals stay two-bucket (map/reduce).
        span.mark("reduce")
    out = _persist(staging, bucket_factory, n)
    if span is not None:
        span.mark("serialize")
    return out


def _persist(
    staging: List[Bucket], bucket_factory: BucketFactory, n_splits: int
) -> List[Bucket]:
    """Move staged pairs into factory-made buckets (possibly files).

    ``absorb`` transfers the staging bucket's cached key bytes and its
    already-known sort state wholesale — no per-pair sorted-flag
    re-tracking — and file buckets batch-write the whole staged load
    through the buffered spill path instead of one writer call per
    pair.
    """
    out: List[Bucket] = []
    for split in range(n_splits):
        bucket = bucket_factory(split)
        bucket.absorb(staging[split])
        if isinstance(bucket, FileBucket):
            # Open even when empty so the file (with its format header)
            # exists for downstream readers and HTTP serving; also
            # flushes the spill buffer and records the file's sort
            # order for downstream streaming merges.
            bucket.open_writer()
            bucket.close_writer()
        out.append(bucket)
    return out


def materialize_input_buckets(
    dataset: Any, task_index: int, streaming: bool = False
) -> List[Bucket]:
    """Resolve split column ``task_index`` of ``dataset`` into buckets
    with in-memory pairs (fetching any URL-only buckets), decoding with
    the dataset's declared serializers.

    With ``streaming=True`` (reduce-side inputs), URL-only buckets are
    *not* fetched: they pass through carrying the dataset's serializer
    names, and the reduce task's merge streams them straight from their
    files (see :func:`repro.io.bucket.bucket_sorted_records`) instead
    of materializing every source bucket as a list up front.
    """
    buckets = dataset.buckets_for_split(task_index)
    key_ser = getattr(dataset, "key_serializer", None)
    value_ser = getattr(dataset, "value_serializer", None)
    resolved: List[Optional[Bucket]] = []
    fetches: List[Tuple[int, Bucket]] = []
    for bucket in buckets:
        if len(bucket) == 0 and bucket.url:
            if streaming:
                if bucket.key_serializer is None:
                    bucket.key_serializer = key_ser
                if bucket.value_serializer is None:
                    bucket.value_serializer = value_ser
                resolved.append(bucket)
                continue
            fetches.append((len(resolved), bucket))
            resolved.append(None)
        else:
            resolved.append(bucket)
    for (index, source), pairs in zip(
        fetches,
        _fetch_all(
            [bucket.url for _, bucket in fetches], key_ser, value_ser
        ),
    ):
        fresh = Bucket(source=source.source, split=source.split, url=source.url)
        fresh.collect(pairs)
        resolved[index] = fresh
    return resolved  # type: ignore[return-value]


def buckets_from_urls(
    urls: Sequence[str],
    split: int,
    key_serializer: Optional[str] = None,
    value_serializer: Optional[str] = None,
    streaming: bool = False,
    sorted_flags: Optional[Sequence[bool]] = None,
) -> List[Bucket]:
    """Fetch input buckets by URL (slave-side task input path).

    With ``streaming=True`` the buckets stay URL-only so a reduce
    task's merge can stream them; ``sorted_flags`` (parallel to
    ``urls``, from the task descriptor) marks which persisted files are
    already in canonical key order and can merge with O(1) memory.
    """
    resolved: List[Bucket] = []
    for source, url in enumerate(urls):
        bucket = Bucket(source=source, split=split, url=url)
        bucket.key_serializer = key_serializer
        bucket.value_serializer = value_serializer
        if streaming and sorted_flags is not None and source < len(sorted_flags):
            bucket.url_sorted = bool(sorted_flags[source])
        resolved.append(bucket)
    if not streaming:
        for bucket, pairs in zip(
            resolved, _fetch_all(list(urls), key_serializer, value_serializer)
        ):
            bucket.collect(pairs)
    return resolved


def _fetch_all(
    urls: Sequence[str],
    key_serializer: Optional[str],
    value_serializer: Optional[str],
) -> List[Iterable[KeyValue]]:
    """Materialize the pairs behind each URL, in order.

    HTTP URLs are fetched in parallel over the transfer plane's pooled
    connections by :func:`repro.comm.transfer.open_streams` — the same
    helper that opens a reduce merge's remote inputs; file URLs are
    read inline.
    """

    def fetch(url: str) -> List[KeyValue]:
        return url_io.fetch_pairs(url, key_serializer, value_serializer)

    def remote(url: str) -> bool:
        return url.startswith(("http://", "https://"))

    fetched = iter(open_streams([url for url in urls if remote(url)], fetch))
    return [next(fetched) if remote(url) else fetch(url) for url in urls]


def run_operation(
    program: Any,
    op: Operation,
    input_buckets: Sequence[Bucket],
    bucket_factory: BucketFactory,
    span: Any = None,
) -> List[Bucket]:
    """Dispatch one operation by kind, without a full ComputedData.

    This is the execution path of slave processes, which receive a
    bare operation dict in a task descriptor rather than a dataset
    object.
    """
    if isinstance(op, MapOperation):
        pairs: Iterable[KeyValue] = (
            pair for bucket in input_buckets for pair in bucket
        )
        return run_map_task(program, op, pairs, bucket_factory, span=span)
    if isinstance(op, ReduceMapOperation):
        return run_reducemap_task(
            program, op, input_buckets, bucket_factory, span=span
        )
    if isinstance(op, ReduceOperation):
        return run_reduce_task(
            program, op, input_buckets, bucket_factory, span=span
        )
    raise TaskError(f"unknown operation {type(op).__name__}")


def execute_task(
    program: Any,
    dataset: ComputedData,
    task_index: int,
    input_buckets: Sequence[Bucket],
    bucket_factory: Optional[BucketFactory] = None,
    span: Any = None,
) -> List[Bucket]:
    """Run one task of ``dataset`` and return its output buckets.

    ``span``, when given, is a :class:`~repro.observability.tracing.
    TaskSpan` that receives ``map``/``reduce`` and ``serialize`` events
    as the task moves through compute and persistence.
    """
    factory = bucket_factory or memory_bucket_factory(task_index)
    op = dataset.operation
    try:
        return run_operation(program, op, input_buckets, factory, span=span)
    except TaskError:
        raise
    except Exception as exc:
        raise TaskError(
            f"task {task_index} of dataset {dataset.id} "
            f"({type(op).__name__}) failed: {exc!r}",
            cause=exc,
        ) from exc
