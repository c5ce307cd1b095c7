"""The one listener lifecycle shared by the RPC, data and status servers."""

import gc
import http.client
import os
import socket
import threading
import time
import urllib.request
import xmlrpc.client

import pytest

from repro.comm.dataserver import DataServer, StatusServer
from repro.comm.rpc import RpcServer, rpc_client

#: How long a stop may take.  The stop wakes the serving thread instead
#: of waiting for a poll, so it is a thread join, not a timer.
PROMPT = 0.1


class Echo:
    def rpc_echo(self, value):
        return value


class Backend:
    def status(self):
        return {"ok": True}


def rpc_server(tmp_path):
    return RpcServer(Echo())


def rpc_request(server):
    assert rpc_client(server.address, timeout=5).echo("x") == "x"


def data_server(tmp_path):
    (tmp_path / "bucket.bin").write_bytes(b"payload")
    return DataServer(str(tmp_path))


def data_request(server):
    with urllib.request.urlopen(server.url_for("bucket.bin"), timeout=5) as resp:
        assert resp.read() == b"payload"


def status_server(tmp_path):
    return StatusServer(Backend())


def status_request(server):
    with urllib.request.urlopen(server.url + "/status", timeout=5) as resp:
        assert b'"ok": true' in resp.read()


SERVERS = {
    "rpc": (rpc_server, rpc_request, "rpc-server"),
    "data": (data_server, data_request, "data-server"),
    "status": (status_server, status_request, "status-server"),
}

#: A keep-alive GET per HTTP/1.1 listener.
KEEP_ALIVE_PATHS = {"data": "/bucket.bin", "status": "/status"}


def serving(name, port):
    return any(t.name == f"{name}-{port}" for t in threading.enumerate())


def refuses(host, port):
    try:
        socket.create_connection((host, port), timeout=5).close()
    except ConnectionRefusedError:
        return True
    return False


def timed_shutdown(server):
    started = time.perf_counter()
    server.shutdown()
    return time.perf_counter() - started


@pytest.mark.parametrize("kind", sorted(SERVERS))
@pytest.mark.parametrize("form", ["shutdown", "with"])
def test_serve_then_stop(tmp_path, kind, form):
    """Serve one request, then stop within PROMPT even though a request
    has just been served; the serving thread has exited, the port
    refuses connections, and a second stop does nothing."""
    make, request, thread_name = SERVERS[kind]
    server = make(tmp_path)
    host, port = server.host, server.port
    assert server.address == f"{host}:{port}"
    if form == "with":
        with server:
            request(server)
            started = time.perf_counter()
    else:
        request(server)
        started = time.perf_counter()
        server.shutdown()
    assert time.perf_counter() - started < PROMPT
    assert not serving(thread_name, port)
    assert refuses(host, port)
    assert timed_shutdown(server) < PROMPT


def open_idle_connection(kind, server):
    """A client connection the server is holding open: a finished
    keep-alive call (RPC) or GET (data, status)."""
    if kind == "rpc":
        client = rpc_client(server.address, timeout=5)
        assert client.echo("x") == "x"
        assert client.pool.idle_count(server.host, server.port) == 1
        return client
    conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
    conn.request("GET", KEEP_ALIVE_PATHS[kind])
    assert conn.getresponse().read()
    return conn


@pytest.mark.parametrize("kind", sorted(SERVERS))
def test_stop_with_idle_connection_open(tmp_path, kind):
    make, _, thread_name = SERVERS[kind]
    server = make(tmp_path)
    conn = open_idle_connection(kind, server)
    try:
        assert timed_shutdown(server) < PROMPT
        assert not serving(thread_name, server.port)
        assert refuses(server.host, server.port)
    finally:
        conn.close()


@pytest.mark.parametrize("kind", sorted(SERVERS))
def test_stop_with_slow_handler_in_flight(tmp_path, kind):
    """The stop does not wait for a handler; the handler still finishes
    its request afterwards."""
    make, request, thread_name = SERVERS[kind]
    server = make(tmp_path)
    entered, release = threading.Event(), threading.Event()

    class Slow(server.RequestHandlerClass):
        def handle(self):
            entered.set()
            release.wait(5)
            super().handle()

    server.RequestHandlerClass = Slow
    outcome = []

    def client():
        request(server)
        outcome.append("served")

    caller = threading.Thread(target=client)
    caller.start()
    try:
        assert entered.wait(5)
        assert timed_shutdown(server) < PROMPT
        assert not serving(thread_name, server.port)
        assert refuses(server.host, server.port)
    finally:
        release.set()
        caller.join(5)
    assert outcome == ["served"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
@pytest.mark.parametrize("kind", sorted(SERVERS))
def test_start_serve_stop_cycles_leak_nothing(tmp_path, kind):
    """50 cycles leave the process's descriptors and serving threads
    where they were: the listening socket and the wake pair are
    closed, the serving thread joined."""
    make, request, _ = SERVERS[kind]

    def fds():
        # Sockets an earlier test dropped are closed here, not mid-loop.
        gc.collect()
        return len(os.listdir("/proc/self/fd"))

    def serving_threads():
        return sorted(t.name for t in threading.enumerate() if "-server-" in t.name)

    fds_before, threads_before = fds(), serving_threads()
    for _ in range(50):
        server = make(tmp_path)
        request(server)
        server.shutdown()
    assert serving_threads() == threads_before
    # A handler thread closes its connection just after the client has
    # read the reply; give the last one a moment.
    deadline = time.monotonic() + 5
    while fds() > fds_before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert fds() <= fds_before


def test_rpc_keeps_the_connection_alive():
    """The RPC listener speaks HTTP/1.1 keep-alive: five calls from one
    client ride one accepted connection."""
    with RpcServer(Echo()) as server:
        accepted = []
        get_request = server.get_request

        def counting_get_request():
            accepted.append(1)
            return get_request()

        server.get_request = counting_get_request
        client = rpc_client(server.address, timeout=5)
        for i in range(5):
            assert client.echo(i) == i
        client.close()
        assert len(accepted) == 1
        body = xmlrpc.client.dumps(("x",), "echo").encode()
        head = b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
        with socket.create_connection((server.host, server.port)) as sock:
            sock.settimeout(5)
            sock.sendall(head % len(body) + body)
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
