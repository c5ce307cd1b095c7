"""XML-RPC control plane.

"Communication between the master and a slave occurs over a simple
HTTP-based remote procedure call API using XML-RPC" (section IV-B).
We use the standard library's :mod:`xmlrpc` exactly as the paper did,
wrapped with two conveniences: a threaded server that exposes an
object's ``rpc_``-prefixed methods, and address parsing/formatting for
the ``HOST:PORT`` strings that are the framework's entire configuration
surface.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Optional, Tuple
from xmlrpc.client import ServerProxy
from xmlrpc.server import SimpleXMLRPCRequestHandler, SimpleXMLRPCServer

RPC_PREFIX = "rpc_"


class _QuietHandler(SimpleXMLRPCRequestHandler):
    """Request handler that suppresses per-request stderr logging."""

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass


class _ThreadedXMLRPCServer(SimpleXMLRPCServer):
    """Handle each RPC in its own thread and reuse the listen address."""

    allow_reuse_address = True
    daemon_threads = True

    def process_request(self, request, client_address):
        thread = threading.Thread(
            target=self._handle_in_thread, args=(request, client_address)
        )
        thread.daemon = True
        thread.start()

    def _handle_in_thread(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def handle_error(self, request, client_address):  # pragma: no cover
        # Connection resets from dying slaves are routine; stay quiet.
        pass


class RpcServer:
    """Serve an object's ``rpc_*`` methods over XML-RPC.

    The server thread is a daemon ("all child threads are configured as
    daemon threads ... a straggling thread does not prevent the program
    from terminating", section IV-B).
    """

    def __init__(
        self,
        handler: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Any = None,
    ):
        self.handler = handler
        self.registry = registry
        self._server = _ThreadedXMLRPCServer(
            (host, port),
            requestHandler=_QuietHandler,
            allow_none=True,
            logRequests=False,
        )
        self.host, self.port = self._server.server_address[:2]
        for name in dir(handler):
            if name.startswith(RPC_PREFIX):
                public = name[len(RPC_PREFIX):]
                method = getattr(handler, name)
                if registry is not None:
                    method = _metered_handler(method, public, registry)
                self._server.register_function(method, public)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"rpc-server-{self.port}",
            daemon=True,
        )
        self._thread.start()

    @property
    def address(self) -> str:
        return format_address(self.host, self.port)

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self) -> "RpcServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


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
