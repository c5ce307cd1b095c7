"""XML-RPC control-plane wrappers."""

import threading

import pytest

from repro.comm.rpc import (
    RpcServer,
    format_address,
    parse_address,
    rpc_client,
)


class EchoHandler:
    def __init__(self):
        self.calls = []

    def rpc_echo(self, value):
        self.calls.append(value)
        return value

    def rpc_add(self, a, b):
        return a + b

    def rpc_none_roundtrip(self):
        return None

    def not_exposed(self):  # no rpc_ prefix
        return "secret"


@pytest.fixture
def server():
    handler = EchoHandler()
    with RpcServer(handler) as srv:
        yield srv, handler


class TestRpcServer:
    def test_ephemeral_port_assigned(self, server):
        srv, _ = server
        assert srv.port > 0

    def test_prefixed_methods_exposed(self, server):
        srv, _ = server
        client = rpc_client(srv.address)
        assert client.echo("hello") == "hello"
        assert client.add(2, 3) == 5

    def test_unprefixed_methods_hidden(self, server):
        srv, _ = server
        client = rpc_client(srv.address)
        with pytest.raises(Exception):
            client.not_exposed()

    def test_none_values_allowed(self, server):
        srv, _ = server
        assert rpc_client(srv.address).none_roundtrip() is None

    def test_dicts_and_lists_roundtrip(self, server):
        srv, _ = server
        payload = {"op": {"kind": "map", "splits": 2}, "urls": ["a", "b"]}
        assert rpc_client(srv.address).echo(payload) == payload

    def test_concurrent_calls(self, server):
        srv, handler = server
        errors = []

        def hammer(n):
            try:
                client = rpc_client(srv.address)
                for i in range(10):
                    assert client.add(n, i) == n + i
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_one_client_shared_by_threads(self, server):
        srv, handler = server
        client = rpc_client(srv.address, timeout=5)
        errors = []

        def hammer(n):
            try:
                for i in range(10):
                    assert client.add(n, i) == n + i
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        client.close()
        assert not errors

    def test_client_timeout_on_dead_server(self):
        handler = EchoHandler()
        srv = RpcServer(handler)
        address = srv.address
        srv.shutdown()
        client = rpc_client(address, timeout=0.5)
        with pytest.raises(Exception):
            client.echo("x")


class TestAddresses:
    def test_roundtrip(self):
        assert parse_address(format_address("1.2.3.4", 99)) == ("1.2.3.4", 99)

    def test_missing_port_rejected(self):
        with pytest.raises(ValueError):
            parse_address("justahost")

    def test_empty_host_defaults_to_loopback(self):
        assert parse_address(":8000") == ("127.0.0.1", 8000)


class TestKeepAlive:
    def test_call_after_server_closed_idle_connection(self, server):
        """A kept-alive connection the server has closed is replayed
        once on a fresh connection: the call succeeds and the handler
        runs exactly once."""
        srv, handler = server

        class CloseAfterReply(srv.RequestHandlerClass):
            def handle_one_request(self):
                super().handle_one_request()
                self.close_connection = True

        srv.RequestHandlerClass = CloseAfterReply
        client = rpc_client(srv.address, timeout=5)
        assert client.echo("first") == "first"
        assert client.pool.idle_count(srv.host, srv.port) == 1
        assert client.echo("second") == "second"
        client.close()
        assert handler.calls == ["first", "second"]

    def test_timeout_is_not_replayed(self, server):
        """A handler slower than the client's timeout: the call raises,
        and the handler ran once, on a reused connection too."""
        srv, _ = server
        release = threading.Event()
        ran = []

        def slow():
            ran.append(1)
            return release.wait(5)

        srv.register_function(slow, "slow")
        client = rpc_client(srv.address, timeout=0.2)
        assert client.echo("warm") == "warm"  # the next call reuses it
        with pytest.raises(TimeoutError):
            client.slow()
        release.set()
        client.close()
        assert ran == [1]

    def test_stopped_server_closes_kept_alive_connection(self):
        """A stopped server closes a kept-alive connection once it has
        answered the call in hand (if one raced the stop), so a client
        learns of the stop by its second call at the latest."""
        srv = RpcServer(EchoHandler())
        client = rpc_client(srv.address, timeout=5)
        assert client.echo("before") == "before"
        srv.shutdown()
        try:
            client.echo("racing the stop")
        except ConnectionRefusedError:
            pass
        with pytest.raises(ConnectionRefusedError):
            client.echo("after")
        client.close()
