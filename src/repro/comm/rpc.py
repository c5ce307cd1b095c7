"""XML-RPC control plane.

"Communication between the master and a slave occurs over a simple
HTTP-based remote procedure call API using XML-RPC" (section IV-B).
We use the standard library's XML-RPC encoding exactly as the paper
did, over HTTP/1.1 keep-alive: a server on the shared
:class:`~repro.comm.listener.Listener` exposes an object's
``rpc_``-prefixed methods, and :class:`RpcClient`, one long-lived
client per peer, sends calls through the keep-alive client the data
plane's fetches use.  Address parsing/formatting covers the
``HOST:PORT`` strings that are the framework's entire configuration
surface.
"""

from __future__ import annotations

import functools
import time
import xmlrpc.client
from typing import Any, Optional, Tuple
from xmlrpc.server import SimpleXMLRPCDispatcher, SimpleXMLRPCRequestHandler

from repro.comm.listener import Listener
from repro.comm.transfer import ConnectionPool

RPC_PREFIX = "rpc_"
_HEADERS = {"Content-Type": "text/xml"}


class _QuietHandler(SimpleXMLRPCRequestHandler):
    """Request handler that suppresses per-request stderr logging and
    keeps the connection open between calls."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def handle_one_request(self) -> None:
        super().handle_one_request()
        # A stopped listener answers the call in hand and then closes a
        # kept-alive connection, so a peer learns of the stop on its
        # next call, as it does on a new connection.
        if self.server.socket.fileno() < 0:
            self.close_connection = True


class RpcServer(Listener, SimpleXMLRPCDispatcher):
    """Serve an object's ``rpc_*`` methods over XML-RPC, one daemon
    thread per keep-alive connection."""

    thread_name = "rpc-server"
    # Read off the server by SimpleXMLRPCRequestHandler.
    logRequests = False
    _send_traceback_header = False

    def __init__(
        self,
        handler: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Any = None,
    ):
        self.handler = handler
        self.registry = registry
        SimpleXMLRPCDispatcher.__init__(self, allow_none=True, encoding=None)
        for name in dir(handler):
            if name.startswith(RPC_PREFIX):
                public = name[len(RPC_PREFIX):]
                method = getattr(handler, name)
                if registry is not None:
                    method = _metered_handler(method, public, registry)
                self.register_function(method, public)
        super().__init__(_QuietHandler, host, port)


class RpcClient:
    """A thread-safe XML-RPC client for the server at ``HOST:PORT``.

    ``client.method(*params)`` POSTs the call through the client's own
    :class:`~repro.comm.transfer.ConnectionPool`; concurrent calls hold
    a connection each, so none waits behind another's timeout.  Returns
    and :class:`xmlrpc.client.Fault` are the standard library's.  With a
    ``registry``, each call is timed into ``rpc.client.<method>.seconds``
    and counted in ``rpc.client.calls`` (failures in
    ``rpc.client.errors``): the control-plane latency the paper's
    per-iteration overhead is made of.
    """

    def __init__(
        self, address: str, timeout: Optional[float] = None, registry: Any = None
    ):
        self.host, self.port = parse_address(address)
        self.timeout = timeout
        self.registry = registry
        if registry is not None:  # a peer that was never called reads 0
            registry.counter("rpc.client.calls")
        self.pool = ConnectionPool()

    def __getattr__(self, name: str) -> Any:
        return functools.partial(self._call, name)

    def _call(self, name: str, *params: Any) -> Any:
        started = time.perf_counter()
        body = xmlrpc.client.dumps(params, name, allow_none=True)
        body = body.encode("utf-8", "xmlcharrefreplace")
        host, port = self.host, self.port
        try:
            conn, _, response = self.pool.request(
                host, port, "POST", "/", self.timeout, body, _HEADERS
            )
            try:
                data = response.read()
            finally:
                self.pool.release(host, port, conn, response.isclosed())
            if response.status != 200:
                raise xmlrpc.client.ProtocolError(
                    f"{host}:{port}/", response.status, response.reason, {}
                )
            result = xmlrpc.client.loads(data)[0][0]
        except Exception:
            if self.registry is not None:
                self.registry.counter("rpc.client.errors").inc()
            raise
        if self.registry is not None:
            self.registry.histogram(f"rpc.client.{name}.seconds").observe(
                time.perf_counter() - started
            )
            self.registry.counter("rpc.client.calls").inc()
        return result

    def close(self) -> None:
        """Close the idle connections."""
        self.pool.close()


rpc_client = RpcClient


def _metered_handler(method: Any, public: str, registry: Any) -> Any:
    """Wrap a server-side handler to time and count its invocations."""

    @functools.wraps(method)
    def handle(*args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            registry.histogram(f"rpc.server.{public}.seconds").observe(
                time.perf_counter() - started
            )
            registry.counter("rpc.server.calls").inc()

    return handle


def parse_address(address: str) -> Tuple[str, int]:
    if ":" not in address:
        raise ValueError(f"address must be HOST:PORT, got {address!r}")
    host, port_text = address.rsplit(":", 1)
    return host or "127.0.0.1", int(port_text)


def format_address(host: str, port: int) -> str:
    return f"{host}:{port}"
