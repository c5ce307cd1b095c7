"""XML-RPC control plane.

"Communication between the master and a slave occurs over a simple
HTTP-based remote procedure call API using XML-RPC" (section IV-B).
We use the standard library's :mod:`xmlrpc` exactly as the paper did,
wrapped with two conveniences: a server on the shared
:class:`~repro.comm.listener.Listener` that exposes an object's
``rpc_``-prefixed methods, and address parsing/formatting for
the ``HOST:PORT`` strings that are the framework's entire configuration
surface.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Optional, Tuple
from xmlrpc.client import ServerProxy
from xmlrpc.server import SimpleXMLRPCDispatcher, SimpleXMLRPCRequestHandler

from repro.comm.listener import Listener

RPC_PREFIX = "rpc_"


class _QuietHandler(SimpleXMLRPCRequestHandler):
    """Request handler that suppresses per-request stderr logging."""

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass


class RpcServer(Listener, SimpleXMLRPCDispatcher):
    """Serve an object's ``rpc_*`` methods over XML-RPC, one call per
    HTTP/1.0 connection, each in its own daemon thread."""

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


def rpc_client(
    address: str,
    timeout: Optional[float] = None,
    registry: Any = None,
) -> Any:
    """Connect to an RPC server at ``HOST:PORT``.

    Each client proxy is cheap; callers create one per thread because
    :class:`ServerProxy` is not thread-safe.  With a ``registry``
    (a :class:`~repro.observability.metrics.MetricsRegistry`), every
    call is timed into ``rpc.client.<method>.seconds`` and failures
    counted in ``rpc.client.errors`` — the control-plane latency the
    paper's per-iteration overhead numbers are made of.
    """
    host, port = parse_address(address)
    uri = f"http://{host}:{port}/"
    if timeout is not None:
        proxy = ServerProxy(
            uri, allow_none=True, transport=_TimeoutTransport(timeout)
        )
    else:
        proxy = ServerProxy(uri, allow_none=True)
    if registry is not None:
        return MeteredProxy(proxy, registry)
    return proxy


class MeteredProxy:
    """Wrap a ServerProxy so each method call records latency metrics."""

    def __init__(self, proxy: Any, registry: Any, prefix: str = "rpc.client"):
        self._proxy = proxy
        self._registry = registry
        self._prefix = prefix

    def __getattr__(self, name: str) -> Any:
        method = getattr(self._proxy, name)
        registry = self._registry
        prefix = self._prefix

        def call(*args: Any) -> Any:
            started = time.perf_counter()
            try:
                result = method(*args)
            except Exception:
                registry.counter(f"{prefix}.errors").inc()
                raise
            registry.histogram(f"{prefix}.{name}.seconds").observe(
                time.perf_counter() - started
            )
            registry.counter(f"{prefix}.calls").inc()
            return result

        return call


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


from xmlrpc.client import Transport


class _TimeoutTransport(Transport):
    """An xmlrpc transport with a per-connection socket timeout."""

    def __init__(self, timeout: float):
        super().__init__()
        self._timeout = timeout

    def make_connection(self, host):
        connection = super().make_connection(host)
        connection.timeout = self._timeout
        return connection
