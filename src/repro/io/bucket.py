"""Buckets: the unit of intermediate data in a MapReduce job.

A dataset is a grid of buckets addressed by ``(source, split)``:
``source`` is the index of the task that produced the data and
``split`` is the partition it belongs to.  A reduce task for split *s*
consumes bucket ``(source, s)`` for every source.

Buckets collect key-value pairs in memory; they can be persisted to a
file with any registered writer format (section IV-B: "the writer opens
and writes a file and then sends the master the corresponding URL") and
re-read later, possibly by a different process or over HTTP.

Encode-once record pipeline
---------------------------
Every placement and ordering decision in the framework is made on a
record's *canonical key bytes* (:func:`repro.util.hashing.key_to_bytes`)
rather than the raw key, so that mixed-type key sets stay well-defined
and placement is process-independent.  Encoding a key is the single
most repeated operation of the shuffle, so a bucket computes each
record's key bytes exactly once — at :meth:`Bucket.addpair` time, or
earlier at emit time when the caller already has them — and caches them
in a parallel array.  The sorted-flag check, :meth:`Bucket.sort`,
grouping, and the reduce-side merge all reuse the cached bytes instead
of re-encoding.

The *decorated record* ``(keybytes, (key, value))`` is the unit the
sort/merge plumbing exchanges: :func:`group_sorted_records`,
:func:`merge_sorted_records`, and :func:`bucket_sorted_records` all
speak records, while the historical pair-level helpers
(:func:`group_sorted`, :func:`merge_sorted_buckets`) remain as thin
views for callers that only care about pairs.

Spill and merge
---------------
A :class:`FileBucket` batch-writes its records through
``BinWriter.writerecords`` and remembers whether the spill stream came
out key-sorted (``url_sorted``).  The reduce side merges its inputs
with one heap merge (:func:`merge_sorted_records`) over
:func:`bucket_sorted_records` streams — sorted files stream straight
off ``BinReader.iter_records`` — and groups the result with
:func:`group_sorted_records`.  The ``.mrsb`` framing itself is known
only to :mod:`repro.io.formats`.
"""

from __future__ import annotations

import heapq
import itertools
import os
from operator import itemgetter, le
from typing import (
    Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.util.hashing import key_to_bytes

KeyValue = Tuple[Any, Any]
#: A pair decorated with its cached canonical key encoding.
Record = Tuple[bytes, KeyValue]

#: Key extractor for decorated records (C-level; no re-encoding).
record_key = itemgetter(0)
#: Second-element extractor: record -> pair, and pair -> value.
record_value = itemgetter(1)

#: Pairs buffered in a :class:`FileBucket` before they are batch-written
#: to the backing file.  Overridable per bucket via the
#: ``spill_buffer_pairs`` constructor argument.
DEFAULT_SPILL_BUFFER_PAIRS = 4096


def sort_key(pair: KeyValue) -> bytes:
    """Canonical sort key: stable byte encoding of the record's key.

    Sorting by encoded bytes (rather than the raw key) makes grouping
    well-defined even for key sets that are not mutually comparable in
    Python 3 (e.g. mixed int/str keys).
    """
    return key_to_bytes(pair[0])


def decorate_pairs(pairs: Iterable[KeyValue]) -> Iterator[Record]:
    """Attach canonical key bytes to a pair stream (one encode each)."""
    for pair in pairs:
        yield key_to_bytes(pair[0]), pair


def group_sorted_records(
    records: Iterable[Record],
) -> Iterator[Tuple[bytes, Any, Iterator[Any]]]:
    """Group a key-sorted record stream into ``(keybytes, key, values)``.

    Grouping compares the cached key bytes, never re-encoding.  The
    yielded key bytes let callers reuse the encoding for downstream
    placement (e.g. partitioning the combiner's or reducer's output for
    the same key).  The values iterator is lazy and must be consumed
    before advancing, exactly like the iterators handed to a reduce
    function.
    """
    for keybytes, group in itertools.groupby(records, key=record_key):
        first_pair = next(group)[1]
        # values = first value, then pair[1] of each remaining record —
        # chain/map keep the per-value iteration at C speed (a record is
        # (keybytes, pair), so record_value twice digs out the value).
        yield keybytes, first_pair[0], itertools.chain(
            (first_pair[1],), map(record_value, map(record_value, group))
        )


def group_sorted(pairs: Iterable[KeyValue]) -> Iterator[Tuple[Any, Iterator[Any]]]:
    """Group a key-sorted pair stream into ``(key, values)`` items.

    Pair-level view of :func:`group_sorted_records`: each key is
    encoded once to drive the grouping.
    """
    for _, key, values in group_sorted_records(decorate_pairs(pairs)):
        yield key, values


class Bucket:
    """An in-memory collection of key-value pairs.

    Internally the pairs ride alongside a parallel array of cached
    canonical key bytes, so ordering decisions (sorted-flag upkeep,
    :meth:`sort`, :meth:`grouped`, merging) never re-encode a key.

    Parameters
    ----------
    source, split:
        Grid coordinates within the owning dataset.
    url:
        Where a persisted copy of this bucket lives (``file:`` path or
        ``http://`` address), if any.
    """

    #: Registered serializer *names* used when reading this bucket's
    #: persisted copy (binary format only).  Set per-instance by
    #: :class:`FileBucket` and by streaming input resolution.
    key_serializer: Optional[str] = None
    value_serializer: Optional[str] = None
    #: ``(records, bytes)`` of the persisted copy at ``url`` as the task
    #: that wrote it reported them; None when unknown.  Set by the
    #: coordinator on the buckets it registers.
    url_size: Optional[Tuple[int, int]] = None

    def __init__(self, source: int = 0, split: int = 0, url: Optional[str] = None):
        self.source = source
        self.split = split
        self.url = url
        self._pairs: List[KeyValue] = []
        #: Cached canonical key bytes, parallel to ``_pairs``.
        self._keys: List[bytes] = []
        #: Tri-state sort flag: ``True``/``False`` when known, ``None``
        #: when unknown (resolved lazily by :attr:`is_sorted` with one
        #: C-speed scan of the key array).
        self._sorted: Optional[bool] = True
        #: True when the persisted copy at ``url`` is known to be in
        #: canonical key order, enabling O(1)-memory streaming merges.
        self.url_sorted = False

    def addpair(self, pair: KeyValue, keybytes: Optional[bytes] = None) -> None:
        """Append a pair, encoding its key once (or reusing ``keybytes``
        when the caller already computed it, e.g. for partitioning).

        Appends do no sortedness bookkeeping — the hottest loop of the
        data plane stays comparison-free and the flag is re-established
        lazily (see :attr:`is_sorted`).
        """
        if keybytes is None:
            keybytes = key_to_bytes(pair[0])
        self._keys.append(keybytes)
        self._pairs.append(pair)
        self._sorted = None

    def extend_records(self, records: List[Record]) -> None:
        """Bulk append of decorated records: the batch form of
        :meth:`addpair`, extending both parallel arrays at C speed.
        ``records`` must be a sequence (it is iterated twice)."""
        self._keys.extend(map(record_key, records))
        self._pairs.extend(map(record_value, records))
        self._sorted = None

    def extend_columns(self, keys: List[bytes], pairs: List[KeyValue]) -> None:
        """Bulk append from parallel key/pair columns.

        The column form of :meth:`extend_records`, used by the batch
        emitter's scatter: the caller already holds the two arrays, so
        nothing is zipped or unzipped.  ``keys`` and ``pairs`` must have
        equal length.
        """
        self._keys.extend(keys)
        self._pairs.extend(pairs)
        self._sorted = None

    def collector(self) -> Tuple[Callable[[bytes], None], Callable[[KeyValue], None]]:
        """Return ``(add_keybytes, add_pair)`` for tight emit loops.

        The pair of bound ``list.append`` methods lets a hot loop feed
        the bucket with two C calls per record instead of one Python
        frame (:meth:`addpair`).  The caller must append exactly one
        ``keybytes`` and one pair per record, in lockstep; the sort
        state is marked unknown once up front so the loop itself stays
        comparison-free.
        """
        self._sorted = None
        return self._keys.append, self._pairs.append

    def collect(self, pairs: Iterable[KeyValue]) -> None:
        for pair in pairs:
            self.addpair(pair)

    def absorb(self, other: "Bucket") -> None:
        """Take every pair of ``other``, reusing its cached key bytes
        and already-known sort state instead of re-deriving them
        pair by pair."""
        if not self._pairs:
            self._keys = list(other._keys)
            self._pairs = list(other._pairs)
            self._sorted = other._sorted
            return
        if self.is_sorted:
            self._sorted = other.is_sorted and (
                not other._keys or self._keys[-1] <= other._keys[0]
            )
        self._keys.extend(other._keys)
        self._pairs.extend(other._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[KeyValue]:
        return iter(self._pairs)

    def __getitem__(self, index: int) -> KeyValue:
        return self._pairs[index]

    def sort(self) -> None:
        """Sort pairs by canonical key encoding (stable): one
        permutation, ``sorted(range(n), key=keys.__getitem__)``, applied
        to both parallel arrays.
        """
        if not self.is_sorted:
            keys = self._keys
            order = sorted(range(len(keys)), key=keys.__getitem__)
            self._keys = list(map(keys.__getitem__, order))
            self._pairs = list(map(self._pairs.__getitem__, order))
            self._sorted = True

    @property
    def is_sorted(self) -> bool:
        """Whether the pairs are in canonical key order.

        Appends leave the flag unknown; the answer is computed here by
        a single vectorized scan over the cached key array and cached
        until the next mutation.  One scan per sort/spill boundary is
        far cheaper than a comparison per append.
        """
        sorted_flag = self._sorted
        if sorted_flag is None:
            keys = self._keys
            sorted_flag = self._sorted = bool(
                not keys or all(map(le, keys, itertools.islice(keys, 1, None)))
            )
        return sorted_flag

    def sorted_pairs(self) -> List[KeyValue]:
        self.sort()
        return self._pairs

    def records(self) -> Iterator[Record]:
        """The decorated record view of the current contents."""
        return zip(self._keys, self._pairs)

    def sorted_records(self) -> Iterator[Record]:
        """Decorated records in canonical key order (sorts in place)."""
        self.sort()
        return zip(self._keys, self._pairs)

    def grouped_records(self) -> Iterator[Tuple[bytes, Any, Iterator[Any]]]:
        """Yield ``(keybytes, key, values)`` groups in key order."""
        return group_sorted_records(self.sorted_records())

    def hash_grouped_records(self) -> List[Tuple[bytes, Any, List[Any]]]:
        """Group ``(keybytes, key, values_list)`` WITHOUT sorting.

        One dict pass over the cached key bytes, returning groups in
        first-encounter order with values as plain lists (in encounter
        order, exactly as a stable sort would deliver them).  This is
        the combiner's grouping: a combiner needs equal keys brought
        together, not global order, so the sort can be deferred to the
        (much smaller) combined output.  Callers that need the bucket
        itself ordered still use :meth:`grouped_records`.
        """
        groups: dict = {}
        get = groups.get
        for keybytes, pair in zip(self._keys, self._pairs):
            entry = get(keybytes)
            if entry is None:
                groups[keybytes] = entry = (pair[0], [])
            entry[1].append(pair[1])
        return [
            (keybytes, entry[0], entry[1]) for keybytes, entry in groups.items()
        ]

    def sorted_grouped_lists(self) -> List[Tuple[bytes, Any, List[Any]]]:
        """Key-ordered ``(keybytes, key, values_list)`` groups.

        Exactly :meth:`hash_grouped_records` followed by sorting the
        group list on the cached key bytes — the combiner's access
        pattern (values stay in encounter order, as a stable sort
        delivers them).
        """
        groups = self.hash_grouped_records()
        groups.sort(key=record_key)
        return groups

    def grouped(self) -> Iterator[Tuple[Any, Iterator[Any]]]:
        """Yield ``(key, values)`` groups in key order."""
        for _, key, values in self.grouped_records():
            yield key, values

    def clean(self) -> None:
        """Drop in-memory pairs (keep the url so data can be re-read)."""
        self._pairs = []
        self._keys = []
        self._sorted = True

    def __repr__(self) -> str:
        return (
            f"Bucket(source={self.source}, split={self.split}, "
            f"len={len(self._pairs)}, url={self.url!r})"
        )


class FileBucket(Bucket):
    """A bucket whose authoritative contents live in a file.

    Appended pairs are buffered and batch-serialized to the backing
    file (``spill_buffer_pairs`` at a time) instead of paying a writer
    call per pair; the buffer is flushed by :meth:`flush` and
    :meth:`close_writer`.  With ``retain=False`` the bucket is
    *spill-only*: pairs go to the file but are not also kept in memory,
    which is what coordinator-side spills and checkpoints want.

    The bucket also tracks whether the spill stream was written in
    canonical key order (``url_sorted`` after :meth:`close_writer`), so
    downstream merges can stream the file without re-sorting.
    """

    def __init__(
        self,
        path: str,
        source: int = 0,
        split: int = 0,
        writer_cls: Optional[type] = None,
        key_serializer: Optional[str] = None,
        value_serializer: Optional[str] = None,
        retain: bool = True,
        spill_buffer_pairs: Optional[int] = None,
    ):
        super().__init__(source=source, split=split, url="file:" + os.path.abspath(path))
        self.path = os.path.abspath(path)
        self._writer = None
        self._writer_cls = writer_cls
        #: Registered serializer *names* (binary format only).
        self.key_serializer = key_serializer
        self.value_serializer = value_serializer
        self._retain = retain
        #: Buffered *records*: the cached key bytes ride along so the
        #: batch writer can serialize canonical keys by slicing them.
        self._spill_buffer: List[Record] = []
        self.spill_buffer_pairs = spill_buffer_pairs or DEFAULT_SPILL_BUFFER_PAIRS
        #: Insertion order of the spill stream (independent of the
        #: in-memory order, which :meth:`sort` may rearrange).
        self._spill_sorted = True
        self._last_spill_key: Optional[bytes] = None

    def open_writer(self):
        from repro.io import formats
        from repro.io.serializers import get_serializer

        if self._writer is None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            writer_cls = self._writer_cls or formats.writer_for(self.path)
            fileobj = open(self.path, "wb")
            if issubclass(writer_cls, formats.BinWriter) and (
                self.key_serializer or self.value_serializer
            ):
                self._writer = writer_cls(
                    fileobj,
                    key_serializer=get_serializer(self.key_serializer),
                    value_serializer=get_serializer(self.value_serializer),
                )
            else:
                self._writer = writer_cls(fileobj)
        return self._writer

    def _track_spill_order(
        self, keys: Sequence[bytes], ordered: Optional[bool] = None
    ) -> None:
        """The one spill-order rule: the spill stream stays key-sorted
        while every batch is itself sorted (``ordered``, or one scan of
        ``keys`` when the caller does not know) and starts no lower than
        the last key spilled before it."""
        if not keys:
            return
        if self._spill_sorted:
            last = self._last_spill_key
            if (last is not None and last > keys[0]) or not (
                ordered
                if ordered is not None
                else all(map(le, keys, itertools.islice(keys, 1, None)))
            ):
                self._spill_sorted = False
        self._last_spill_key = keys[-1]

    def _buffer(self, records: Iterable[Record]) -> None:
        self._spill_buffer.extend(records)
        if len(self._spill_buffer) >= self.spill_buffer_pairs:
            self._flush_spill()

    def addpair(self, pair: KeyValue, keybytes: Optional[bytes] = None) -> None:
        if keybytes is None:
            keybytes = key_to_bytes(pair[0])
        self._track_spill_order((keybytes,), True)
        if self._retain:
            super().addpair(pair, keybytes)
        self._buffer(((keybytes, pair),))

    def absorb(self, other: Bucket) -> None:
        keys = other._keys
        self._track_spill_order(keys, other.is_sorted)
        if self._retain:
            super().absorb(other)
        if not self._spill_buffer and len(keys) >= self.spill_buffer_pairs:
            # Nothing buffered ahead of a batch that would flush anyway:
            # stream it straight to the writer.  The lazy zip feeds the
            # batch writer's unpack loop, which lets CPython reuse one
            # result tuple instead of materializing a record per pair.
            # It can be consumed only once, so the pairs ride along for
            # writers that need a second pass (the sidecar's user file).
            self._write_batch(zip(keys, other._pairs), other._pairs)
        else:
            self._buffer(zip(keys, other._pairs))

    def collector(self) -> Tuple[Callable[[bytes], None], Callable[[KeyValue], None]]:
        """File buckets must observe every record for spill-order and
        flush bookkeeping, so the fast path degrades to per-pair
        :meth:`addpair` closures (same lockstep contract)."""
        pending: List[bytes] = []
        addpair = self.addpair

        def add_pair(pair: KeyValue) -> None:
            addpair(pair, pending.pop())

        return pending.append, add_pair

    def extend_records(self, records: List[Record]) -> None:
        self._track_spill_order(list(map(record_key, records)))
        if self._retain:
            super().extend_records(records)
        self._buffer(records)

    def extend_columns(self, keys: List[bytes], pairs: List[KeyValue]) -> None:
        self._track_spill_order(keys)
        if self._retain:
            super().extend_columns(keys, pairs)
        self._buffer(zip(keys, pairs))

    def _flush_spill(self) -> None:
        if self._spill_buffer:
            batch = self._spill_buffer
            self._spill_buffer = []
            self._write_batch(batch)

    def _write_batch(
        self, records: Iterable[Record], pairs: Optional[List[KeyValue]] = None
    ) -> None:
        """Write one batch.  ``pairs``, when given, is the batch's pair
        column; only then may ``records`` be a one-shot iterator."""
        writer = self.open_writer()
        writerecords = getattr(writer, "writerecords", None)
        if writerecords is not None:
            writerecords(records)
        elif pairs is not None:
            writer.writepairs(pairs)
        else:
            writer.writepairs([record[1] for record in records])

    def flush(self) -> None:
        """Push buffered pairs into the file without closing it."""
        self._flush_spill()
        if self._writer is not None:
            self._writer.finish()

    def close_writer(self) -> None:
        self._flush_spill()
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        self.url_sorted = self._spill_sorted

    def readback(self) -> List[KeyValue]:
        """Re-read pairs from the backing file (independent of memory)."""
        from repro.io import urls as url_io

        if self._writer is not None or self._spill_buffer:
            self.flush()
        return url_io.fetch_pairs(
            "file:" + self.path,
            key_serializer=self.key_serializer,
            value_serializer=self.value_serializer,
        )


class SidecarFileBucket(FileBucket):
    """A user-facing output file plus a lossless ``.mrsb`` sidecar.

    Final job output is often written in a human-readable but lossy
    format (text).  When the master later needs the authoritative pairs
    (programmatic result access, cross-implementation equivalence), it
    reads the sidecar; the user keeps their text file.  The bucket's
    URL points at the sidecar.  Both files get the same buffered batch
    writes.
    """

    def __init__(
        self,
        user_path: str,
        source: int = 0,
        split: int = 0,
        key_serializer: Optional[str] = None,
        value_serializer: Optional[str] = None,
        retain: bool = True,
        spill_buffer_pairs: Optional[int] = None,
    ):
        sidecar_path = os.path.join(
            os.path.dirname(user_path), "." + os.path.basename(user_path) + ".mrsb"
        )
        super().__init__(
            sidecar_path,
            source=source,
            split=split,
            key_serializer=key_serializer,
            value_serializer=value_serializer,
            retain=retain,
            spill_buffer_pairs=spill_buffer_pairs,
        )
        self.user_path = os.path.abspath(user_path)
        self._user_writer = None

    def open_writer(self):
        from repro.io import formats

        writer = super().open_writer()
        if self._user_writer is None:
            os.makedirs(os.path.dirname(self.user_path) or ".", exist_ok=True)
            writer_cls = formats.writer_for(self.user_path)
            self._user_writer = writer_cls(open(self.user_path, "wb"))
        return writer

    def _write_batch(
        self, records: Iterable[Record], pairs: Optional[List[KeyValue]] = None
    ) -> None:
        if pairs is None:
            pairs = [record[1] for record in records]
        super()._write_batch(records, pairs)
        self._user_writer.writepairs(pairs)

    def close_writer(self) -> None:
        super().close_writer()
        if self._user_writer is not None:
            self._user_writer.close()
            self._user_writer = None


def bucket_sorted_records(
    bucket: Bucket,
    key_serializer: Optional[str] = None,
    value_serializer: Optional[str] = None,
) -> Iterator[Record]:
    """A bucket's contents as a key-sorted decorated record stream.

    Resident buckets sort in place and stream their cached records.  A
    URL-only bucket (pairs living in a file) is read through the format
    layer: if its persisted copy is known to be key-sorted
    (``url_sorted``), records stream straight off the file with O(1)
    memory; otherwise the records are materialized and sorted once,
    with each key encoded exactly once.
    """
    if len(bucket) or not bucket.url:
        return bucket.sorted_records()
    ks = key_serializer if key_serializer is not None else bucket.key_serializer
    vs = value_serializer if value_serializer is not None else bucket.value_serializer
    return sorted_records_from_url(bucket.url, bucket.url_sorted, ks, vs)


def sorted_records_from_url(
    url: str,
    url_sorted: bool,
    key_serializer: Optional[str] = None,
    value_serializer: Optional[str] = None,
) -> Iterator[Record]:
    """Key-sorted decorated records behind a bucket URL.

    The streaming core of :func:`bucket_sorted_records`, for local and
    remote buckets alike: a persisted copy known to be key-sorted
    streams straight off the file/socket with O(1) memory; otherwise
    the records are materialized and sorted once, here and nowhere
    else, with each key encoded exactly once by the format layer.
    """
    from repro.io import urls as url_io

    if url_sorted:
        return url_io.iter_records(url, key_serializer, value_serializer)
    records = list(url_io.iter_records(url, key_serializer, value_serializer))
    records.sort(key=record_key)
    return iter(records)


def merge_sorted_records(streams: List[Iterator[Record]]) -> Iterator[Record]:
    """Merge key-sorted record streams with a heap.

    Comparison happens on the cached key bytes (``itemgetter`` runs at
    C speed), so merging never re-encodes a key and never compares raw
    pairs — mixed-type key sets merge fine.
    """
    return heapq.merge(*streams, key=record_key)


def merge_sorted_buckets(
    buckets: Iterable[Bucket],
    key_serializer: Optional[str] = None,
    value_serializer: Optional[str] = None,
) -> Iterator[KeyValue]:
    """Merge several buckets into one key-sorted pair stream.

    The same merge a reduce task performs over the map-output buckets
    it fetches from every map source; URL-only buckets stream from
    their files (see :func:`bucket_sorted_records`).
    """
    streams = [
        bucket_sorted_records(bucket, key_serializer, value_serializer)
        for bucket in buckets
    ]
    return (pair for _, pair in merge_sorted_records(streams))
