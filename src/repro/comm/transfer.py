"""The shuffle transfer plane: pooled, streaming bucket fetches.

Section IV-B's direct peer transfer — "requests from readers are served
by a built-in HTTP server" — is what makes iterative shuffles cheap, so
reading a remote bucket should cost no more than reading a local file.
This module owns everything between a bucket URL and the decoded record
stream a task consumes:

* :class:`FetchPolicy` — the one timeout/retries/backoff policy shared
  by every HTTP fetch in the process.
* :class:`ConnectionPool` — persistent keep-alive
  :class:`http.client.HTTPConnection` objects keyed by ``host:port``,
  so an R-bucket shuffle pays one TCP handshake per peer instead of one
  per bucket.
* streaming fetches — the response body feeds the format reader
  straight off the socket (``BinReader.iter_records`` slices canonical
  key bytes from the wire), with transparent gzip when negotiated and
  skip-ahead resume when a transfer dies mid-stream.
* :func:`open_streams` — opens a task's remote inputs in parallel, each
  advanced to its first record, and hands the streams back to be read
  in the task's own thread: a reduce merge reads each key-sorted remote
  bucket straight off its socket, exactly as it reads a local file.
* :class:`TransferStats` — bytes moved, connections created/reused and
  retries, mirrored into the process's metrics registry and
  piggybacked per task to the coordinator.

The plane has no options: its settings are the module constants below
(:data:`FETCH_THREADS`, :data:`COMPRESSION` and :class:`FetchPolicy`'s
defaults).  Callers that need other values — tests, probes — pass them
to the constructors and ``fetch_*`` functions.
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
    "open_streams",
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
#: Threads that open a task's remote inputs (reduce merge, map fan-in).
FETCH_THREADS = 4
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
    (counted as reused) or opens a fresh one, and never waits: a task
    merging N key-sorted buckets from one peer holds N connections for
    as long as the merge runs, so any per-host cap below its fan-in
    would hang it.  ``release`` returns a healthy connection to the
    idle stack (at most ``max_idle_per_host`` kept) or closes it.
    """

    def __init__(
        self,
        max_idle_per_host: int = 4,
        stats: Optional[TransferStats] = None,
    ):
        self.max_idle_per_host = max_idle_per_host
        self.stats = stats if stats is not None else STATS
        self._lock = threading.Lock()
        self._idle: Dict[Tuple[str, int], deque] = {}

    def acquire(
        self, host: str, port: int, timeout: float
    ) -> Tuple[http.client.HTTPConnection, bool]:
        """Return ``(connection, reused)`` for ``host:port``."""
        with self._lock:
            idle = self._idle.get((host, port))
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
        if reusable and conn is not None:
            with self._lock:
                idle = self._idle.setdefault((host, port), deque())
                if len(idle) < self.max_idle_per_host:
                    idle.append(conn)
                    conn = None
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass

    def idle_count(self, host: str, port: int) -> int:
        with self._lock:
            return len(self._idle.get((host, port), ()))

    def close(self) -> None:
        with self._lock:
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


class _ByteCounter:
    """Counts the bytes read through it into the STATS counter ``name``:
    ``fetch.wire_bytes`` off the response, ``fetch.bytes`` decoded."""

    def __init__(self, raw: Any, name: str):
        self._raw = raw
        self._name = name

    def read(self, n: int = -1) -> bytes:
        data = self._raw.read(n)
        if data:
            STATS.add(self._name, len(data))
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
            stream: Any = _ByteCounter(response, "fetch.wire_bytes")
            if (response.getheader("Content-Encoding") or "").lower() == "gzip":
                stream = _GunzipStream(stream)
            stream = io.BufferedReader(
                _RawAdapter(_ByteCounter(stream, "fetch.bytes")), 1 << 16
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


# ----------------------------------------------------------------------
# Opening a task's inputs
# ----------------------------------------------------------------------


def open_streams(
    items: Sequence[Any],
    open_item: Callable[[Any], Iterable[Any]],
    span: Any = None,
) -> List[Iterator[Any]]:
    """``iter(open_item(item))`` for every item, opened in parallel.

    Up to :data:`FETCH_THREADS` threads each open an item's stream and
    advance it to its first record — for a key-sorted remote bucket that
    is connect, request and the first read; for an unsorted one the whole
    fetch and sort — and record one fetch span (``thread``, ``source``,
    ``url``) on ``span`` when given.  The primed streams come back in item
    order and are read afterwards in the caller's thread, straight off
    their sockets.  A single item opens inline.

    The first open to fail raises its exception once every thread has
    stopped; the streams already opened are closed first, which returns
    their connections to the pool.
    """
    if len(items) <= 1:
        return [iter(open_item(item)) for item in items]
    from itertools import chain, islice

    streams: List[Any] = [None] * len(items)
    heads: List[List[Any]] = [[] for _ in items]
    errors: List[Exception] = []
    lock = threading.Lock()
    claims = iter(range(len(items)))

    def run(thread: int) -> None:
        while True:
            with lock:
                index = None if errors else next(claims, None)
            if index is None:
                return
            item = items[index]
            started = time.perf_counter()
            try:
                stream = streams[index] = iter(open_item(item))
                heads[index] = list(islice(stream, 1))
            except Exception as exc:
                with lock:
                    errors.append(exc)
                return
            if span is not None:
                span.add_fetch_span(
                    started,
                    time.perf_counter(),
                    thread=thread,
                    source=getattr(item, "source", index),
                    url=getattr(item, "url", None),
                )

    threads = [
        threading.Thread(
            target=run, args=(i,), name=f"mrs-fetch-{i}", daemon=True
        )
        for i in range(min(FETCH_THREADS, len(items)))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        for stream in streams:
            # Closing a suspended fetch generator runs its ``finally``,
            # releasing the connection it holds.
            close = getattr(stream, "close", None)
            if close is not None:
                close()
        raise errors[0]
    return [chain(head, stream) for head, stream in zip(heads, streams)]


def _is_remote(bucket: Any) -> bool:
    return bool(
        len(bucket) == 0
        and bucket.url
        and bucket.url.startswith(("http://", "https://"))
    )


def bucket_record_streams(
    input_buckets: Sequence[Any], span: Any = None
) -> List[Iterator[Record]]:
    """Key-sorted record streams for a reduce merge, in bucket order.

    Every stream is :func:`repro.io.bucket.bucket_sorted_records`, the
    same for local and remote buckets; those behind HTTP URLs are opened
    together by :func:`open_streams` (fetch spans go to ``span``), the
    rest inline.  Stream order matches bucket order, so the merge's
    output — and therefore the reduce output — is byte-identical to a
    sequential fetch.
    """
    from repro.io.bucket import bucket_sorted_records

    remote = [bucket for bucket in input_buckets if _is_remote(bucket)]
    opened = iter(open_streams(remote, bucket_sorted_records, span))
    return [
        next(opened) if _is_remote(bucket) else bucket_sorted_records(bucket)
        for bucket in input_buckets
    ]
