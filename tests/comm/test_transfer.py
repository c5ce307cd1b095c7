"""The shuffle transfer plane: pooling, parallel open, compression, resume."""

import http.server
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.comm import transfer
from repro.comm.dataserver import DataServer
from repro.comm.rpc import RpcServer, rpc_client
from repro.comm.transfer import (
    ConnectionPool,
    FetchError,
    FetchPolicy,
    bucket_record_streams,
    fetch_pair_stream,
)
from repro.io.bucket import (
    Bucket,
    FileBucket,
    bucket_sorted_records,
    merge_sorted_records,
    record_key,
)


#: A fast policy so failure tests don't sleep through real backoff.
FAST = FetchPolicy(timeout=5.0, retries=2, retry_delay=0.01)


def write_bucket(tmp_path, name, pairs):
    path = str(tmp_path / name)
    bucket = FileBucket(path)
    for pair in pairs:
        bucket.addpair(pair)
    bucket.close_writer()
    return path


class TestConnectionReuse:
    def test_sequential_fetches_reuse_one_connection(self, tmp_path):
        path = write_bucket(tmp_path, "a.mrsb", [("k", 1), ("l", 2)])
        pool = ConnectionPool()
        with DataServer(str(tmp_path)) as server:
            url = server.url_for(path)
            before = transfer.STATS.totals()
            for _ in range(5):
                assert list(fetch_pair_stream(url, pool=pool)) == [
                    ("k", 1),
                    ("l", 2),
                ]
            delta = transfer.STATS.delta(before)
        assert delta["fetch.connections.created"] == 1
        assert delta["fetch.connections.reused"] == 4
        assert delta["fetch.requests"] == 5

    def test_reused_connection_is_as_fast_as_a_fresh_one(self, tmp_path):
        """Two small fetches on one pooled connection each finish in
        well under the ~40 ms a peer's delayed ACK costs a reply split
        into small writes with Nagle on (the listener sets TCP_NODELAY
        on accepted connections)."""
        pairs = [(f"k{i:03d}", i) for i in range(50)]
        path = write_bucket(tmp_path, "small.mrsb", pairs)
        slowest = []
        with DataServer(str(tmp_path)) as server:
            url = server.url_for(path)
            # Best of three: one slow scheduling slice must not fail it.
            for _ in range(3):
                pool = ConnectionPool()
                took = []
                for _ in range(2):
                    started = time.perf_counter()
                    assert list(fetch_pair_stream(url, pool=pool)) == pairs
                    took.append(time.perf_counter() - started)
                pool.close()
                slowest.append(max(took))
        assert min(slowest) < 0.010, slowest

    def test_pool_caps_idle_connections(self, tmp_path):
        pool = ConnectionPool(max_idle_per_host=1)
        c1, reused1 = pool.acquire("127.0.0.1", 1234, timeout=1.0)
        c2, reused2 = pool.acquire("127.0.0.1", 1234, timeout=1.0)
        assert not reused1 and not reused2
        pool.release("127.0.0.1", 1234, c1, reusable=True)
        pool.release("127.0.0.1", 1234, c2, reusable=True)
        assert pool.idle_count("127.0.0.1", 1234) == 1
        _, reused3 = pool.acquire("127.0.0.1", 1234, timeout=1.0)
        assert reused3
        pool.close()

    def test_reused_connection_gets_callers_timeout(self, tmp_path):
        # HTTPConnection.timeout only applies at socket creation, so the
        # pool must retime the live socket when handing out a reused
        # connection.
        path = write_bucket(tmp_path, "a.mrsb", [("k", 1)])
        pool = ConnectionPool()
        with DataServer(str(tmp_path)) as server:
            url = server.url_for(path)
            list(fetch_pair_stream(url, pool=pool))
            conn, reused = pool.acquire(server.host, server.port, timeout=1.25)
            try:
                assert reused
                assert conn.sock is not None
                assert conn.sock.gettimeout() == 1.25
            finally:
                pool.release(server.host, server.port, conn, reusable=True)
        pool.close()

    def test_rpc_calls_stay_out_of_fetch_counters(self):
        """RPC clients share the pool's code, not its counters: the
        fetch connection counters count fetches only."""

        class Echo:
            def rpc_echo(self, value):
                return value

        with RpcServer(Echo()) as server:
            client = rpc_client(server.address, timeout=5)
            before = transfer.STATS.totals()
            for i in range(10):
                assert client.echo(i) == i
            delta = transfer.STATS.delta(before)
            client.close()
        assert not [name for name in delta if name.startswith("fetch.")]

    def test_counters_visible_in_metrics_names(self, tmp_path):
        path = write_bucket(tmp_path, "a.mrsb", [("k", 1)])
        with DataServer(str(tmp_path)) as server:
            before = transfer.STATS.totals()
            list(fetch_pair_stream(server.url_for(path)))
            delta = transfer.STATS.delta(before)
        assert delta["fetch.bytes"] > 0
        assert delta["fetch.wire_bytes"] > 0
        assert delta["fetch.seconds"] > 0


class TestCompression:
    def payload(self):
        # Highly compressible values so gzip visibly shrinks the wire.
        return [(f"key{i:04d}", "x" * 200) for i in range(200)]

    def test_gzip_round_trips_and_shrinks_wire(self, tmp_path):
        pairs = self.payload()
        path = write_bucket(tmp_path, "big.mrsb", pairs)
        with DataServer(str(tmp_path)) as server:
            url = server.url_for(path)
            before = transfer.STATS.totals()
            plain = list(fetch_pair_stream(url, compression="off"))
            mid = transfer.STATS.totals()
            zipped = list(fetch_pair_stream(url, compression="gzip"))
            after = transfer.STATS.totals()
        assert plain == pairs
        assert zipped == pairs
        identity_wire = mid["fetch.wire_bytes"] - before["fetch.wire_bytes"]
        gzip_wire = after["fetch.wire_bytes"] - mid["fetch.wire_bytes"]
        assert gzip_wire < identity_wire / 2
        # Decoded payload bytes are identical either way.
        assert (mid["fetch.bytes"] - before["fetch.bytes"]) == (
            after["fetch.bytes"] - mid["fetch.bytes"]
        )

    def test_auto_skips_gzip_on_loopback(self, tmp_path):
        pairs = self.payload()
        path = write_bucket(tmp_path, "big.mrsb", pairs)
        with DataServer(str(tmp_path)) as server:
            url = server.url_for(path)
            before = transfer.STATS.totals()
            assert list(fetch_pair_stream(url, compression="auto")) == pairs
            delta = transfer.STATS.delta(before)
        # Identity transfer: wire bytes ~= decoded bytes.
        assert delta["fetch.wire_bytes"] >= delta["fetch.bytes"]

    def test_server_compression_off_serves_identity(self, tmp_path):
        pairs = self.payload()
        path = write_bucket(tmp_path, "big.mrsb", pairs)
        with DataServer(str(tmp_path), compression=False) as server:
            url = server.url_for(path)
            assert list(fetch_pair_stream(url, compression="gzip")) == pairs


def merged_within(buckets, timeout=60.0):
    """Merge the buckets' sorted record streams on a daemon thread,
    failing instead of hanging the suite if it does not finish."""
    merged, errors = [], []

    def consume():
        try:
            streams = bucket_record_streams(buckets, bucket_sorted_records)
            merged.extend(merge_sorted_records(streams))
        except Exception as exc:
            errors.append(exc)

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    consumer.join(timeout=timeout)
    assert not consumer.is_alive(), "merge over remote buckets hung"
    if errors:
        raise errors[0]
    return merged


class TestPrefetchMerge:
    def make_remote_buckets(
        self, tmp_path, server, n=4, rows=50, url_sorted=False
    ):
        buckets = []
        for b in range(n):
            pairs = [(f"k{i:06d}b{b}", i * b) for i in range(rows)]
            path = write_bucket(tmp_path, f"bucket{b}.mrsb", pairs)
            bucket = Bucket(source=b, split=0, url=server.url_for(path))
            bucket.url_sorted = url_sorted
            buckets.append(bucket)
        return buckets

    def sequential(self, buckets):
        return list(
            merge_sorted_records([bucket_sorted_records(b) for b in buckets])
        )

    @pytest.mark.parametrize(
        "compression, threads", [("auto", 4), ("gzip", 1)]
    )
    def test_prefetched_merge_matches_sequential(
        self, tmp_path, monkeypatch, compression, threads
    ):
        # The merge a reduce sees is the same records in the same order
        # whether its inputs are opened one by one or in parallel, on
        # any number of threads, gzip negotiated or not.
        monkeypatch.setattr(transfer, "COMPRESSION", compression)
        monkeypatch.setattr(transfer, "FETCH_THREADS", threads)
        with DataServer(str(tmp_path)) as server:
            buckets = self.make_remote_buckets(tmp_path, server)
            sequential = self.sequential(buckets)
            before = transfer.STATS.totals()
            parallel = merged_within(buckets)
            delta = transfer.STATS.delta(before)
        assert parallel == sequential
        assert sequential == sorted(sequential, key=record_key)
        assert len(sequential) == 4 * 50
        gzipped = delta["fetch.wire_bytes"] < delta["fetch.bytes"]
        assert gzipped == (compression == "gzip")

    def test_prefetch_records_fetch_spans(self, tmp_path):
        from repro.observability.tracing import TaskSpan

        with DataServer(str(tmp_path)) as server:
            buckets = self.make_remote_buckets(tmp_path, server)
            span = TaskSpan("ds", 0)
            span.mark("started")
            streams = bucket_record_streams(buckets, bucket_sorted_records, span)
            list(merge_sorted_records(streams))
        fetches = span.to_dict()["fetches"]
        assert len(fetches) == len(buckets)
        assert {f["source"] for f in fetches} == {0, 1, 2, 3}
        assert {f["url"] for f in fetches} == {b.url for b in buckets}
        assert all(f["seconds"] >= 0 for f in fetches)

    def test_single_remote_bucket_skips_prefetcher(self, tmp_path):
        # One remote input is opened inline in the task's thread: no
        # fetch thread, so no fetch span.
        from repro.observability.tracing import TaskSpan

        with DataServer(str(tmp_path)) as server:
            buckets = self.make_remote_buckets(tmp_path, server, n=1)
            span = TaskSpan("ds", 0)
            streams = bucket_record_streams(buckets, bucket_sorted_records, span)
            assert len(list(streams[0])) == 50
        assert span.fetch_spans == []

    def test_disjoint_key_ranges_small_budget_no_deadlock(self, tmp_path):
        # Range-disjoint sorted buckets: the merge drains one stream
        # completely while the other's socket sits idle after its
        # first record, and must still finish.
        with DataServer(str(tmp_path)) as server:
            buckets = []
            expected = []
            for b, prefix in enumerate("ab"):
                pairs = [(f"{prefix}{i:04d}", i) for i in range(200)]
                expected.extend(pairs)
                path = write_bucket(tmp_path, f"range{b}.mrsb", pairs)
                bucket = Bucket(source=b, split=0, url=server.url_for(path))
                bucket.url_sorted = True
                buckets.append(bucket)
            merged = merged_within(buckets)
        assert [pair for _, pair in merged] == expected

    def test_more_sorted_inputs_than_fetch_threads_complete(
        self, tmp_path, monkeypatch
    ):
        # Regression: heapq.merge needs the first record of every stream
        # before it yields one, so opening an input must never wait for
        # another input to be drained.  A byte budget on read-ahead
        # blocks broke that once six overlapping key-sorted buckets,
        # each several blocks long, filled it from the first four (one
        # per fetch thread): the fifth was never opened and the merge
        # hung.  The tight budget is set only where such a setting
        # exists.
        monkeypatch.setattr(
            transfer, "FETCH_BUFFER_BYTES", 1 << 16, raising=False
        )
        with DataServer(str(tmp_path)) as server:
            buckets = self.make_remote_buckets(
                tmp_path, server, n=6, rows=8000, url_sorted=True
            )
            sequential = self.sequential(buckets)
            merged = merged_within(buckets)
        assert len(merged) == 6 * 8000
        assert merged == sequential
        assert merged == sorted(merged, key=record_key)

    def test_ten_sorted_buckets_from_one_server_complete(self, tmp_path):
        # Every sorted remote input holds its connection for as long as
        # the merge runs, so the pool must not cap connections per host
        # below a task's fan-in.
        with DataServer(str(tmp_path)) as server:
            buckets = self.make_remote_buckets(
                tmp_path, server, n=10, url_sorted=True
            )
            merged = merged_within(buckets)
            assert merged == self.sequential(buckets)
        assert len(merged) == 10 * 50

    def test_failed_open_raises_and_stops_fetch_threads(self, tmp_path):
        with DataServer(str(tmp_path)) as server:
            buckets = self.make_remote_buckets(
                tmp_path, server, n=3, url_sorted=True
            )
            missing = Bucket(source=3, split=0, url=server.url_for("no.mrsb"))
            missing.url_sorted = True
            with pytest.raises(FetchError):
                bucket_record_streams(buckets + [missing], bucket_sorted_records)
        assert not any(
            thread.name.startswith("mrs-fetch-")
            for thread in threading.enumerate()
        )


class _TruncatingHandler(http.server.BaseHTTPRequestHandler):
    """Serves a bucket file but cuts the first N responses short."""

    payload = b""
    failures = 0
    lock = threading.Lock()

    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_GET(self):
        cls = type(self)
        with cls.lock:
            fail = cls.failures > 0
            if fail:
                cls.failures -= 1
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(cls.payload)))
        self.end_headers()
        if fail:
            # Stop mid-record (an odd prefix of the body), then drop
            # the connection, emulating a dying peer.
            self.wfile.write(cls.payload[: max(1, len(cls.payload) // 2 - 3)])
            self.wfile.flush()
            self.connection.close()
        else:
            self.wfile.write(cls.payload)


@pytest.fixture
def truncating_server(tmp_path):
    pairs = [(f"key{i:03d}", i) for i in range(100)]
    path = write_bucket(tmp_path, "flaky.mrsb", pairs)
    with open(path, "rb") as f:
        payload = f.read()

    class Handler(_TruncatingHandler):
        pass

    Handler.payload = payload
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}/flaky.mrsb"
    try:
        yield Handler, url, pairs
    finally:
        server.shutdown()
        server.server_close()


class TestFailureHandling:
    def test_mid_transfer_death_resumes_without_duplicates(
        self, truncating_server
    ):
        handler, url, pairs = truncating_server
        handler.failures = 1
        policy = FetchPolicy(timeout=5.0, retries=3, retry_delay=0.01)
        before = transfer.STATS.totals()
        got = list(fetch_pair_stream(url, policy=policy, pool=ConnectionPool()))
        delta = transfer.STATS.delta(before)
        assert got == pairs  # each record exactly once, in order
        assert delta["fetch.retries"] >= 1

    @pytest.mark.parametrize("policy, attempts", [(FAST, 2), (None, 3)])
    def test_server_dead_after_retries_raises(
        self, truncating_server, policy, attempts
    ):
        handler, url, _ = truncating_server
        handler.failures = 99  # never recovers within the retry budget
        with pytest.raises(FetchError):
            list(fetch_pair_stream(url, policy=policy, pool=ConnectionPool()))
        # The default policy (None) gives up after three attempts.
        assert handler.failures == 99 - attempts

    def test_connect_refused_raises_fetch_error(self):
        with pytest.raises(FetchError):
            list(
                fetch_pair_stream(
                    "http://127.0.0.1:1/never.mrsb",
                    policy=FetchPolicy(timeout=0.5, retries=2, retry_delay=0.01),
                    pool=ConnectionPool(),
                )
            )


class TestDataServerHardening:
    def test_quoted_traversal_is_rejected(self, tmp_path):
        secret = tmp_path.parent / "secret.txt"
        secret.write_text("password")
        served = tmp_path / "served"
        served.mkdir()
        with DataServer(str(served)) as server:
            url = f"http://{server.host}:{server.port}/%2e%2e/secret.txt"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(url)
            assert err.value.code in (403, 404)

    def test_head_reports_real_length(self, tmp_path):
        path = write_bucket(tmp_path, "a.mrsb", [("k", 1)])
        size = len(open(path, "rb").read())
        with DataServer(str(tmp_path)) as server:
            request = urllib.request.Request(
                server.url_for(path), method="HEAD"
            )
            with urllib.request.urlopen(request) as response:
                assert response.status == 200
                assert int(response.headers["Content-Length"]) == size

    def test_head_missing_file_404(self, tmp_path):
        with DataServer(str(tmp_path)) as server:
            request = urllib.request.Request(
                f"http://{server.host}:{server.port}/no.mrsb", method="HEAD"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request)
            assert err.value.code == 404
