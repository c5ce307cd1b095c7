"""The one TCP listener behind every built-in server.

The XML-RPC control plane (:class:`~repro.comm.rpc.RpcServer`), the
bucket data plane (:class:`~repro.comm.dataserver.DataServer`) and the
status/control surface (:class:`~repro.comm.dataserver.StatusServer`)
are each a request handler plus their own state on top of
:class:`Listener`, which owns everything they share: binding (address
reuse, a 128-connection backlog), one daemon thread per request with a
quiet error policy, the serving thread ("all child threads are
configured as daemon threads ... a straggling thread does not prevent
the program from terminating", section IV-B), ``host``/``port``/
``address``, and ``shutdown()`` with the context manager.

The handler reads its server's state as ``self.server.<attribute>``:
the subclass sets that state *before* calling ``Listener.__init__``,
which binds and starts serving.
"""

from __future__ import annotations

import socketserver
import threading
from typing import Any


class Listener(socketserver.ThreadingMixIn, socketserver.TCPServer):
    """Bind ``host:port`` and serve ``handler_class`` on a daemon thread
    until :meth:`shutdown`."""

    allow_reuse_address = True
    daemon_threads = True
    # The stdlib default backlog (5) drops connections under bursts —
    # submitters on the control surface, slaves signing in or reporting
    # at once — so every listener absorbs dozens of simultaneous
    # connects without resets.
    request_queue_size = 128
    #: The serving thread is named ``<thread_name>-<port>``.
    thread_name = "listener"

    def __init__(self, handler_class: Any, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), handler_class)
        self.host, self.port = self.server_address[:2]
        self._serving = threading.Thread(
            target=self.serve_forever,
            name=f"{self.thread_name}-{self.port}",
            daemon=True,
        )
        self._serving.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def handle_error(self, request: Any, client_address: Any) -> None:
        # Connection resets from dying peers and clients that hang up
        # mid-response are routine; stay quiet.
        pass

    def shutdown(self) -> None:
        """Stop serving (the serving loop polls for this every 0.5 s),
        close the listening socket and join the serving thread."""
        super().shutdown()
        self.server_close()
        self._serving.join()

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
