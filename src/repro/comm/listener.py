"""The one TCP listener behind every built-in server.

The XML-RPC control plane (:class:`~repro.comm.rpc.RpcServer`), the
bucket data plane (:class:`~repro.comm.dataserver.DataServer`) and the
status/control surface (:class:`~repro.comm.dataserver.StatusServer`)
are each a request handler plus their own state on top of
:class:`Listener`, which owns everything they share: binding (address
reuse, a 128-connection backlog, ``TCP_NODELAY`` on accepted sockets),
one daemon thread per HTTP/1.1 keep-alive connection, held until the
peer closes it, with a quiet error policy, the serving
thread ("all child threads are configured as daemon threads ... a
straggling thread does not prevent the program from terminating",
section IV-B), ``host``/``port``/``address``, and ``shutdown()``, which
wakes the serving thread through a socket pair rather than a poll.

The handler reads its server's state as ``self.server.<attribute>``:
the subclass sets that state *before* calling ``Listener.__init__``,
which binds and starts serving.
"""

from __future__ import annotations

import selectors
import socket
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
        self._wake = socket.socketpair()
        self._serving = threading.Thread(
            target=self._serve,
            args=(self._wake[0],),
            name=f"{self.thread_name}-{self.port}",
            daemon=True,
        )
        self._serving.start()

    def _serve(self, wake: socket.socket) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(wake, selectors.EVENT_READ)
            # Accept until shutdown() makes the wake end readable.
            while wake not in [key.fileobj for key, _ in selector.select()]:
                self._handle_request_noblock()

    def get_request(self) -> Any:
        request, address = super().get_request()
        # Replies end in small writes; with Nagle on, a reused
        # keep-alive connection holds them for the peer's delayed ACK.
        request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return request, address

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def handle_error(self, request: Any, client_address: Any) -> None:
        # Connection resets from dying peers and clients that hang up
        # mid-response are routine; stay quiet.
        pass

    def shutdown(self) -> None:
        """Wake and join the serving thread, then close the listening
        socket and the wake pair.  A second call does nothing."""
        # dict.pop is atomic: of two concurrent calls, one gets the pair.
        wake = vars(self).pop("_wake", None)
        if wake is not None:
            wake[1].send(b"\0")
            self._serving.join()
            self.server_close()
            for end in wake:
                end.close()

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
