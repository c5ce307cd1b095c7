"""The shuffle transfer plane: pooled, pipelined, streaming bucket fetches.

Section IV-B's direct peer transfer — "requests from readers are served
by a built-in HTTP server" — is what makes iterative shuffles cheap, so
the cross-node fetch path deserves the same care the in-node data plane
got.  This module owns everything between a bucket URL and the decoded
record stream a reduce task merges:

* :class:`FetchPolicy` — the one timeout/retries/backoff policy shared
  by every HTTP fetch in the process.
* :class:`ConnectionPool` — persistent keep-alive
  :class:`http.client.HTTPConnection` objects keyed by ``host:port``
  with a per-host concurrency cap, so an R-bucket shuffle pays one TCP
  handshake per peer instead of one per bucket.
* streaming fetches — the response body feeds the format reader
  straight off the socket (``BinReader.iter_records`` slices canonical
  key bytes from the wire), with transparent gzip when negotiated and
  skip-ahead resume when a transfer dies mid-stream.
* :class:`Prefetcher` — a small thread pool that fetches a reduce
  task's remote input buckets in parallel, bounded by a byte budget,
  handing each bucket's key-sorted record stream to the merge as blocks
  land — network transfer overlaps sort/merge compute instead of
  serializing ahead of it.
* :class:`TransferStats` — bytes moved, connections created/reused,
  retries, and prefetch stall time, mirrored into the process's metrics
  registry and piggybacked per task to the coordinator.

The plane has no options: its settings are the module constants below
(:data:`FETCH_THREADS`, :data:`FETCH_BUFFER_BYTES`, :data:`COMPRESSION`
and :class:`FetchPolicy`'s defaults).  Callers that need other values —
tests, probes — pass them to the constructors and ``fetch_*`` functions.
"""

from __future__ import annotations

import http.client
import io
import threading
import time
import urllib.parse
import zlib
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.io import formats

KeyValue = Tuple[Any, Any]
Record = Tuple[bytes, KeyValue]

__all__ = [
    "FetchError",
    "FetchPolicy",
    "ConnectionPool",
    "TransferStats",
    "STATS",
    "get_pool",
    "install_registry",
    "fetch_record_stream",
    "fetch_pair_stream",
    "fetch_pairs_parallel",
    "Prefetcher",
    "bucket_record_streams",
]


class FetchError(Exception):
    """A bucket URL could not be fetched after retries."""


# ----------------------------------------------------------------------
# Policy and settings
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FetchPolicy:
    """Retry/timeout policy for one HTTP fetch.

    ``retry_delay`` grows linearly per attempt (0.2 s, 0.4 s, ...), the
    same transient-failure model the seed used: a slave may momentarily
    be unable to serve (restarting its data server, file still being
    renamed into place); total failure is escalated to the master,
    which reruns the producing task.
    """

    timeout: float = 30.0
    retries: int = 3
    retry_delay: float = 0.2

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (0-based)."""
        return self.retry_delay * (attempt + 1)


#: The policy every fetch uses unless the caller passes its own.
DEFAULT_POLICY = FetchPolicy()
#: Parallel fetch threads per task (reduce prefetch, map-side fan-in).
FETCH_THREADS = 4
#: Byte budget for records buffered ahead of a reduce merge.
FETCH_BUFFER_BYTES = 32 * 1024 * 1024
#: ``auto`` requests gzip from non-loopback peers only; ``gzip``
#: always; ``off`` never.
COMPRESSION = "auto"


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------


class TransferStats:
    """Process-wide fetch counters, mirrored into a metrics registry.

    Coordinators install their registry (:func:`install_registry`) so
    ``job.metrics()`` reports the plane's activity; slaves/workers
    snapshot :meth:`totals` around each task and piggyback the delta on
    the task-completion message.
    """

    _NAMES = (
        "fetch.requests",
        "fetch.bytes",
        "fetch.wire_bytes",
        "fetch.retries",
        "fetch.connections.created",
        "fetch.connections.reused",
        "fetch.stall.seconds",
        "fetch.seconds",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, float] = {name: 0.0 for name in self._NAMES}
        self._registry: Any = None

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self._values[name] = self._values.get(name, 0.0) + amount
            registry = self._registry
        if registry is not None:
            registry.counter(name).inc(amount)

    def totals(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._values)

    def delta(self, before: Dict[str, float]) -> Dict[str, float]:
        """Non-zero counter movement since a :meth:`totals` snapshot."""
        now = self.totals()
        return {
            name: value - before.get(name, 0.0)
            for name, value in now.items()
            if value - before.get(name, 0.0) > 0.0
        }

    def set_registry(self, registry: Any) -> None:
        with self._lock:
            self._registry = registry


STATS = TransferStats()


def install_registry(registry: Any) -> None:
    """Mirror transfer counters into ``registry`` from now on."""
    STATS.set_registry(registry)


# ----------------------------------------------------------------------
# Connection pool
# ----------------------------------------------------------------------


class ConnectionPool:
    """Keep-alive HTTP connections keyed by ``(host, port)``.

    ``acquire`` hands out an idle pooled connection when one exists
    (counted as reused) or opens a fresh one, blocking while the host
    already has ``max_per_host`` connections checked out — the per-host
    concurrency cap that stops a wide shuffle from stampeding one peer.
    ``release`` returns a healthy connection to the idle stack (at most
    ``max_idle_per_host`` kept) or closes it.
    """

    def __init__(
        self,
        max_per_host: int = 8,
        max_idle_per_host: int = 4,
        stats: Optional[TransferStats] = None,
    ):
        self.max_per_host = max_per_host
        self.max_idle_per_host = max_idle_per_host
        self.stats = stats if stats is not None else STATS
        self._cond = threading.Condition()
        self._idle: Dict[Tuple[str, int], deque] = {}
        self._active: Dict[Tuple[str, int], int] = {}

    def acquire(
        self, host: str, port: int, timeout: float
    ) -> Tuple[http.client.HTTPConnection, bool]:
        """Return ``(connection, reused)`` for ``host:port``."""
        key = (host, port)
        with self._cond:
            while self._active.get(key, 0) >= self.max_per_host:
                self._cond.wait()
            self._active[key] = self._active.get(key, 0) + 1
            idle = self._idle.get(key)
            conn = idle.popleft() if idle else None
        if conn is not None:
            conn.timeout = timeout
            # HTTPConnection only applies .timeout when creating the
            # socket; a live pooled socket must be retimed directly.
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
            self.stats.add("fetch.connections.reused")
            return conn, True
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        self.stats.add("fetch.connections.created")
        return conn, False

    def release(
        self,
        host: str,
        port: int,
        conn: Optional[http.client.HTTPConnection],
        reusable: bool,
    ) -> None:
        key = (host, port)
        with self._cond:
            self._active[key] = max(0, self._active.get(key, 0) - 1)
            if reusable and conn is not None:
                idle = self._idle.setdefault(key, deque())
                if len(idle) < self.max_idle_per_host:
                    idle.append(conn)
                    conn = None
            self._cond.notify_all()
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass

    def idle_count(self, host: str, port: int) -> int:
        with self._cond:
            return len(self._idle.get((host, port), ()))

    def close(self) -> None:
        with self._cond:
            idles = list(self._idle.values())
            self._idle.clear()
        for idle in idles:
            for conn in idle:
                try:
                    conn.close()
                except Exception:
                    pass


_pool_lock = threading.Lock()
_pool: Optional[ConnectionPool] = None


def get_pool() -> ConnectionPool:
    """The per-process connection pool (created on first use)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ConnectionPool()
        return _pool


# ----------------------------------------------------------------------
# Streaming fetch
# ----------------------------------------------------------------------

_LOOPBACK_HOSTS = frozenset({"127.0.0.1", "localhost", "::1"})


def _want_gzip(host: str, compression: str) -> bool:
    if compression == "gzip":
        return True
    if compression == "off":
        return False
    # "auto": compression trades CPU for bandwidth, a clear win across
    # a real network and a clear loss over loopback.
    return host not in _LOOPBACK_HOSTS


class _CountingStream:
    """File-like over an HTTPResponse counting wire bytes into STATS."""

    def __init__(self, response: Any, stats: TransferStats):
        self._response = response
        self._stats = stats

    def read(self, n: int = -1) -> bytes:
        data = self._response.read(n)
        if data:
            self._stats.add("fetch.wire_bytes", len(data))
        return data


class _GunzipStream:
    """Streaming gzip decoder over a wire-byte stream."""

    _CHUNK = 1 << 16

    def __init__(self, raw: Any):
        self._raw = raw
        self._decoder = zlib.decompressobj(16 + zlib.MAX_WBITS)
        self._buffer = b""
        self._eof = False

    def read(self, n: int = -1) -> bytes:
        if n is None or n < 0:
            chunks = [self._buffer]
            self._buffer = b""
            while not self._eof:
                chunks.append(self._read_more())
            return b"".join(chunks)
        while len(self._buffer) < n and not self._eof:
            self._buffer += self._read_more()
        data, self._buffer = self._buffer[:n], self._buffer[n:]
        return data

    def _read_more(self) -> bytes:
        compressed = self._raw.read(self._CHUNK)
        if not compressed:
            self._eof = True
            return self._decoder.flush()
        return self._decoder.decompress(compressed)


class _ByteCounter:
    """Counts decoded payload bytes as the reader consumes them."""

    def __init__(self, raw: Any, stats: TransferStats):
        self._raw = raw
        self._stats = stats

    def read(self, n: int = -1) -> bytes:
        data = self._raw.read(n)
        if data:
            self._stats.add("fetch.bytes", len(data))
        return data


class _RawAdapter(io.RawIOBase):
    """Adapt a bare ``read(n)`` object into a real raw stream, so
    :class:`io.BufferedReader` can add readline/iteration on top (text
    readers iterate their file object line by line)."""

    def __init__(self, stream: Any):
        self._stream = stream

    def readable(self) -> bool:
        return True

    def readinto(self, buffer: Any) -> int:
        data = self._stream.read(len(buffer))
        buffer[: len(data)] = data
        return len(data)


def _open_response(
    url: str,
    parsed: urllib.parse.ParseResult,
    pool: ConnectionPool,
    policy: FetchPolicy,
    gzip_ok: bool,
) -> Tuple[http.client.HTTPConnection, bool, Any]:
    """One GET attempt on a pooled connection.

    Returns ``(conn, reused, response)``; raises on connect/HTTP
    failure after returning the connection to the pool.  A *reused*
    connection that fails before producing a status line gets one free
    replay on a fresh connection — the server legitimately closes idle
    keep-alive sockets, and that must not burn a retry.
    """
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 80
    path = parsed.path or "/"
    if parsed.query:
        path += "?" + parsed.query
    headers = {"Accept-Encoding": "gzip" if gzip_ok else "identity"}
    for replay in (True, False):
        conn, reused = pool.acquire(host, port, policy.timeout)
        try:
            conn.request("GET", path, headers=headers)
            response = conn.getresponse()
        except Exception:
            pool.release(host, port, conn, reusable=False)
            if reused and replay:
                continue
            raise
        if response.status != 200:
            # Drain the error body so the connection stays reusable.
            try:
                response.read()
                pool.release(host, port, conn, reusable=True)
            except Exception:
                pool.release(host, port, conn, reusable=False)
            raise FetchError(f"HTTP {response.status} fetching {url}")
        return conn, reused, response
    raise FetchError(f"failed to fetch {url}")  # pragma: no cover


def _stream_items(
    url: str,
    make_iter: Callable[[Any], Iterator[Any]],
    policy: Optional[FetchPolicy] = None,
    pool: Optional[ConnectionPool] = None,
    compression: Optional[str] = None,
) -> Iterator[Any]:
    """Stream items decoded off the wire, with mid-transfer resume.

    ``make_iter`` turns a readable byte stream into an item iterator.
    On a mid-stream failure the whole fetch is retried against the
    (immutable) bucket file and the items already delivered are skipped
    on the fresh stream, so consumers see each item exactly once; a
    server that stays dead escalates to :exc:`FetchError` after the
    policy's retries.
    """
    if policy is None:
        policy = DEFAULT_POLICY
    if pool is None:
        pool = get_pool()
    parsed = urllib.parse.urlparse(url)
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 80
    gzip_ok = _want_gzip(host, compression or COMPRESSION)
    delivered = 0
    last_error: Exception = FetchError(url)
    for attempt in range(policy.retries):
        if attempt:
            STATS.add("fetch.retries")
            time.sleep(policy.backoff(attempt - 1))
        started = time.perf_counter()
        try:
            conn, _, response = _open_response(url, parsed, pool, policy, gzip_ok)
        except Exception as exc:
            last_error = exc
            continue
        STATS.add("fetch.requests")
        reusable = False
        try:
            stream: Any = _CountingStream(response, STATS)
            if (response.getheader("Content-Encoding") or "").lower() == "gzip":
                stream = _GunzipStream(stream)
            stream = io.BufferedReader(
                _RawAdapter(_ByteCounter(stream, STATS)), 1 << 16
            )
            skip = delivered
            for item in make_iter(stream):
                if skip:
                    skip -= 1
                    continue
                delivered += 1
                yield item
            # The reader consumed the payload to EOF, so the socket has
            # no unread body and can go straight back into the pool.
            reusable = response.isclosed()
            STATS.add("fetch.seconds", time.perf_counter() - started)
            return
        except GeneratorExit:
            # Consumer abandoned the stream mid-body: the connection
            # has unread data and cannot be reused.
            raise
        except Exception as exc:
            last_error = exc
        finally:
            pool.release(host, port, conn, reusable=reusable)
    raise FetchError(f"failed to fetch {url}: {last_error}") from last_error


def fetch_record_stream(
    url: str,
    key_serializer: Optional[str] = None,
    value_serializer: Optional[str] = None,
    policy: Optional[FetchPolicy] = None,
    pool: Optional[ConnectionPool] = None,
    compression: Optional[str] = None,
) -> Iterator[Record]:
    """Decorated ``(keybytes, pair)`` records streamed off the socket.

    Binary buckets ride the reader's ``iter_records`` fast path, so
    canonical key bytes are sliced from the wire encoding — remote and
    local buckets share the same encode-once pipeline.
    """
    path = urllib.parse.urlparse(url).path

    def make_iter(stream: Any) -> Iterator[Record]:
        return formats.open_reader(
            path, stream, key_serializer, value_serializer
        ).iter_records()

    return _stream_items(url, make_iter, policy, pool, compression)


def fetch_pair_stream(
    url: str,
    key_serializer: Optional[str] = None,
    value_serializer: Optional[str] = None,
    policy: Optional[FetchPolicy] = None,
    pool: Optional[ConnectionPool] = None,
    compression: Optional[str] = None,
) -> Iterator[KeyValue]:
    """Plain pairs streamed off the socket (no key-byte decoration)."""
    path = urllib.parse.urlparse(url).path

    def make_iter(stream: Any) -> Iterator[KeyValue]:
        return iter(
            formats.open_reader(path, stream, key_serializer, value_serializer)
        )

    return _stream_items(url, make_iter, policy, pool, compression)


def fetch_pairs_parallel(
    jobs: Sequence[Tuple[str, Optional[str], Optional[str]]],
) -> List[List[KeyValue]]:
    """Fetch several ``(url, key_serializer, value_serializer)`` jobs in
    parallel, returning pair lists in job order.

    The map-side analogue of the reduce prefetcher: a map task whose
    inputs are N remote buckets pays ~one round trip instead of N.
    """
    results: List[Any] = [None] * len(jobs)
    errors: List[Exception] = []
    index_lock = threading.Lock()
    next_index = [0]

    def worker() -> None:
        while True:
            with index_lock:
                i = next_index[0]
                if i >= len(jobs) or errors:
                    return
                next_index[0] = i + 1
            url, ks, vs = jobs[i]
            try:
                results[i] = list(fetch_pair_stream(url, ks, vs))
            except Exception as exc:
                errors.append(exc)
                return

    workers = [
        threading.Thread(target=worker, name=f"mrs-fetch-{i}", daemon=True)
        for i in range(min(FETCH_THREADS, len(jobs)))
    ]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    if errors:
        raise errors[0]
    return results


# ----------------------------------------------------------------------
# Prefetch pipeline
# ----------------------------------------------------------------------


class _ByteBudget:
    """Bounded byte accounting shared by a prefetcher's streams.

    A producer blocks while the budget is exhausted *and* something is
    in flight — a single block larger than the whole budget still
    proceeds when nothing else holds bytes, so no workload deadlocks.

    ``acquire`` additionally takes a ``bypass`` predicate re-checked on
    every wakeup: a producer whose target stream has nothing queued must
    always be admitted, because the merge may be blocked waiting on
    exactly that stream while the whole budget is held by blocks queued
    for streams the merge is *not* consuming (skewed key ranges).
    Bypassed admissions bound memory at the budget plus one in-flight
    block per stream instead of deadlocking.
    """

    def __init__(self, limit: int):
        self.limit = max(1, limit)
        self._cond = threading.Condition()
        self._used = 0
        self._cancelled = False

    def acquire(
        self, n: int, bypass: Optional[Callable[[], bool]] = None
    ) -> bool:
        with self._cond:
            while (
                not self._cancelled
                and self._used > 0
                and self._used + n > self.limit
                and not (bypass is not None and bypass())
            ):
                self._cond.wait(0.05)
            if self._cancelled:
                return False
            self._used += n
            return True

    def charge(self, n: int) -> None:
        """Account ``n`` bytes unconditionally (never blocks).

        Used for memory the plane holds regardless of the budget — a
        materialized unsorted bucket — so that budgeted producers back
        off while it is resident.
        """
        with self._cond:
            self._used += n

    @property
    def cancelled(self) -> bool:
        with self._cond:
            return self._cancelled

    def release(self, n: int) -> None:
        with self._cond:
            self._used = max(0, self._used - n)
            self._cond.notify_all()

    def cancel(self) -> None:
        with self._cond:
            self._cancelled = True
            self._cond.notify_all()


_END = object()


class _PrefetchStream:
    """One bucket's record stream, fed in blocks by a fetch thread."""

    def __init__(self, budget: _ByteBudget, stats: TransferStats):
        import queue

        self._queue: "Any" = queue.Queue()
        self._budget = budget
        self._stats = stats

    # -- producer side --------------------------------------------------

    def put_block(
        self, block: List[Record], nbytes: int, precharged: bool = False
    ) -> bool:
        # The empty-queue bypass guarantees per-stream progress: if the
        # merge is blocked on this stream, its queue is (or is about to
        # be) empty, so the producer is admitted even when blocks queued
        # for other streams hold the whole budget.
        if precharged:
            if self._budget.cancelled:
                return False
        elif not self._budget.acquire(nbytes, bypass=self._queue.empty):
            return False
        self._queue.put((block, nbytes))
        return True

    def finish(self, error: Optional[Exception] = None) -> None:
        self._queue.put((_END, error))

    # -- consumer side --------------------------------------------------

    def __iter__(self) -> Iterator[Record]:
        import queue as queue_mod

        while True:
            try:
                block, nbytes = self._queue.get_nowait()
            except queue_mod.Empty:
                # The merge outran the network: stall time is the
                # pipeline's headline health number.
                waited = time.perf_counter()
                block, nbytes = self._queue.get()
                self._stats.add(
                    "fetch.stall.seconds", time.perf_counter() - waited
                )
            if block is _END:
                if nbytes is not None:
                    raise nbytes  # the producer's exception
                return
            # Release at dequeue, not after consumption: the merge
            # holds one current block per stream while waiting on the
            # *other* streams' first blocks, so accounting consumed-but-
            # unfinished blocks against the budget would deadlock it.
            self._budget.release(nbytes)
            yield from block


#: Records per prefetch block; bounds latency between a block landing
#: and the merge seeing it.
_BLOCK_RECORDS = 2048
#: Per-record overhead estimate (tuple + pair + small value) for the
#: budget.  Values exposing their real size (bytes, numpy blocks) are
#: charged for it on top — a handful of multi-megabyte array blocks
#: must not be budgeted as if they were 64-byte counters.
_RECORD_OVERHEAD = 64


def _record_cost(record: "Record") -> int:
    value = record[1][1]
    size = getattr(value, "nbytes", None)  # numpy arrays, memoryviews
    if size is None and isinstance(value, (bytes, bytearray)):
        size = len(value)
    return len(record[0]) + _RECORD_OVERHEAD + (size or 0)


class Prefetcher:
    """Fetch remote buckets in parallel and stream them to a merge.

    ``add(bucket)`` registers a URL-only bucket and returns the record
    stream the merge should consume for it; :meth:`start` launches the
    fetch threads.  Buckets whose persisted copy is key-sorted stream
    block by block; unsorted buckets are materialized and sorted inside
    the fetch thread (still off the merge's critical path), one bucket
    at a time with the resident bytes charged to the budget.  Each
    bucket's fetch window is recorded on ``span`` (when given) so the
    timeline can draw fetch spans overlapping merge compute.
    """

    def __init__(
        self,
        threads: int,
        buffer_bytes: int,
        span: Any = None,
        stats: Optional[TransferStats] = None,
    ):
        self.threads = max(1, threads)
        self.span = span
        self.stats = stats if stats is not None else STATS
        self._budget = _ByteBudget(buffer_bytes)
        self._work: List[Tuple[Any, _PrefetchStream]] = []
        self._threads: List[threading.Thread] = []
        self._next = 0
        self._lock = threading.Lock()
        #: Serializes unsorted-bucket materialization: at most one full
        #: bucket is resident per prefetcher (matching the sequential
        #: path's peak), instead of one per fetch thread.
        self._sort_gate = threading.Lock()

    def add(self, bucket: Any) -> _PrefetchStream:
        stream = _PrefetchStream(self._budget, self.stats)
        self._work.append((bucket, stream))
        return stream

    def start(self) -> None:
        count = min(self.threads, len(self._work))
        for i in range(count):
            thread = threading.Thread(
                target=self._run, args=(i,), name=f"mrs-prefetch-{i}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def close(self) -> None:
        """Cancel outstanding work and unblock every producer."""
        with self._lock:
            self._next = len(self._work)
        self._budget.cancel()

    def _claim(self) -> Optional[Tuple[int, Any, _PrefetchStream]]:
        with self._lock:
            if self._next >= len(self._work):
                return None
            index = self._next
            self._next += 1
        bucket, stream = self._work[index]
        return index, bucket, stream

    def _run(self, thread_index: int) -> None:
        while True:
            claimed = self._claim()
            if claimed is None:
                return
            index, bucket, stream = claimed
            started = time.perf_counter()
            try:
                self._fetch_bucket(bucket, stream)
            except Exception as exc:
                stream.finish(exc)
            else:
                stream.finish()
            if self.span is not None:
                add_fetch = getattr(self.span, "add_fetch_span", None)
                if add_fetch is not None:
                    add_fetch(
                        started,
                        time.perf_counter(),
                        thread=thread_index,
                        source=getattr(bucket, "source", index),
                        url=getattr(bucket, "url", None),
                    )

    def _fetch_bucket(self, bucket: Any, stream: _PrefetchStream) -> None:
        # Known-sorted files stream block by block; unknown order
        # materializes and sorts in this thread, keeping the sort itself
        # off the merge's critical path.
        if not getattr(bucket, "url_sorted", False):
            # One materialized bucket at a time, its bytes charged to
            # the budget while resident — without the gate and charge,
            # one full bucket per fetch thread could be in memory at once,
            # all invisible to the budget.
            with self._sort_gate:
                self._fetch_unsorted(bucket, stream)
            return
        from repro.io.bucket import sorted_records_from_url

        records = sorted_records_from_url(
            bucket.url,
            True,
            bucket.key_serializer,
            bucket.value_serializer,
        )
        block: List[Record] = []
        nbytes = 0
        for record in records:
            block.append(record)
            nbytes += _record_cost(record)
            if len(block) >= _BLOCK_RECORDS:
                if not stream.put_block(block, nbytes):
                    return
                block, nbytes = [], 0
        if block and not stream.put_block(block, nbytes):
            return

    def _fetch_unsorted(self, bucket: Any, stream: _PrefetchStream) -> None:
        """Materialize, sort, and hand over an unsorted remote bucket.

        Every materialized byte is charged to the budget as it arrives
        (non-blocking — blocking here could deadlock the merge against
        the sort gate), so budgeted producers pause while the bucket is
        resident.  The charge is transferred to the queued blocks, which
        release it as the merge consumes them.
        """
        from repro.io import urls as url_io
        from repro.io.bucket import record_key

        records: List[Record] = []
        charged = 0
        budget = self._budget
        try:
            for record in url_io.iter_records(
                bucket.url, bucket.key_serializer, bucket.value_serializer
            ):
                records.append(record)
                n = _record_cost(record)
                budget.charge(n)
                charged += n
            records.sort(key=record_key)
        except BaseException:
            budget.release(charged)
            raise
        for start in range(0, len(records), _BLOCK_RECORDS):
            block = records[start : start + _BLOCK_RECORDS]
            nbytes = sum(_record_cost(record) for record in block)
            if not stream.put_block(block, nbytes, precharged=True):
                return


def bucket_record_streams(
    input_buckets: Sequence[Any], span: Any = None
) -> Tuple[List[Iterator[Record]], Optional[Prefetcher]]:
    """Key-sorted record streams for a reduce merge, prefetching remote
    buckets in parallel.

    Buckets backed by HTTP URLs are routed through a
    :class:`Prefetcher` (when there is more than one of them);
    everything else streams through
    :func:`repro.io.bucket.bucket_sorted_records` unchanged.  Stream
    order matches bucket order, so the merge's output — and therefore
    the reduce output — is byte-identical to a sequential fetch.
    """
    from repro.io.bucket import bucket_sorted_records

    remote = [
        bucket
        for bucket in input_buckets
        if len(bucket) == 0
        and bucket.url
        and bucket.url.startswith(("http://", "https://"))
    ]
    if len(remote) <= 1:
        return [bucket_sorted_records(b) for b in input_buckets], None
    prefetcher = Prefetcher(
        threads=FETCH_THREADS, buffer_bytes=FETCH_BUFFER_BYTES, span=span
    )
    remote_ids = {id(bucket) for bucket in remote}
    streams: List[Iterator[Record]] = []
    for bucket in input_buckets:
        if id(bucket) in remote_ids:
            streams.append(iter(prefetcher.add(bucket)))
        else:
            streams.append(bucket_sorted_records(bucket))
    prefetcher.start()
    return streams, prefetcher
