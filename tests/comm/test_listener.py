"""The one listener lifecycle shared by the RPC, data and status servers."""

import socket
import threading
import urllib.request

import pytest

from repro.comm.dataserver import DataServer, StatusServer
from repro.comm.rpc import RpcServer, rpc_client


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


def serving(name, port):
    return any(t.name == f"{name}-{port}" for t in threading.enumerate())


def refuses(host, port):
    try:
        socket.create_connection((host, port), timeout=5).close()
    except ConnectionRefusedError:
        return True
    return False


@pytest.mark.parametrize("kind", sorted(SERVERS))
@pytest.mark.parametrize("form", ["shutdown", "with"])
def test_serve_then_stop(tmp_path, kind, form):
    """Serve one request, stop; the serving thread has exited and the
    port refuses connections."""
    make, request, thread_name = SERVERS[kind]
    server = make(tmp_path)
    host, port = server.host, server.port
    assert server.address == f"{host}:{port}"
    if form == "with":
        with server:
            request(server)
    else:
        request(server)
        server.shutdown()
    assert not serving(thread_name, port)
    assert refuses(host, port)


def test_rpc_one_call_per_connection():
    """The RPC listener speaks HTTP/1.0: every call is its own
    connection, closed by the server after the reply."""
    with RpcServer(Echo()) as server:
        head = b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
        with socket.create_connection((server.host, server.port)) as sock:
            sock.settimeout(5)
            sock.sendall(head)
            answer = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # server closed the connection
                answer += chunk
        assert answer.startswith(b"HTTP/1.0 ")
