"""Built-in HTTP servers: the bucket data plane and the status plane.

Section IV-B: "For data communicated directly, the writer opens and
writes a file on a local filesystem, and requests from readers are
served by a built-in HTTP server."  Small short-lived files typically
never leave the kernel's page cache.

A :class:`DataServer` serves one directory read-only.  Bucket URLs are
``http://host:port/<path relative to root>``.

:class:`StatusServer` exposes a *read-only JSON view of a running job*
(``--mrs-status-http PORT``): ``GET /status`` returns ``Job.status()``,
``GET /metrics`` its Prometheus rendering, and ``GET /events?since=N``
the event ring tail — enough for ``curl`` or a Prometheus scraper to
watch a long fan-out job in flight without touching the XML-RPC control
plane.  Both are a request handler on the one
:class:`~repro.comm.listener.Listener`.
"""

from __future__ import annotations

import hmac
import http.server
import json
import os
import urllib.parse
import zlib
from typing import Any, Callable, Dict, Optional

from repro.comm.listener import Listener

#: Streaming read/compress granularity for bucket responses.
_STREAM_CHUNK = 256 * 1024


class RawResponse:
    """A status view's escape hatch from JSON: a pre-rendered body with
    its own content type (the Prometheus text exposition)."""

    def __init__(self, body: str, content_type: str, code: int = 200):
        self.body = body
        self.content_type = content_type
        self.code = code

#: Responses below this size skip compression even when the client
#: negotiated gzip: header overhead would eat the saving.
GZIP_MIN_BYTES = 1024


class _BucketRequestHandler(http.server.BaseHTTPRequestHandler):
    server: "DataServer"
    protocol_version = "HTTP/1.1"
    server_version = "MrsData/1.0"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _resolve(self) -> Optional[str]:
        """Map the request path to a served file; sends the error
        response (403 escape / 404 missing) and returns None on
        failure.  Quoting is undone *before* the realpath containment
        check, so encoded traversals (``%2e%2e``) cannot escape."""
        root = self.server.root_dir
        path = urllib.parse.unquote(urllib.parse.urlparse(self.path).path)
        full = os.path.realpath(os.path.join(root, path.lstrip("/")))
        # Never serve anything outside the export root.
        if not (full == root or full.startswith(root + os.sep)):
            self.send_error(403, "path escapes export root")
            return None
        if not os.path.isfile(full):
            self.send_error(404, "no such bucket file")
            return None
        return full

    def _client_accepts_gzip(self) -> bool:
        accept = self.headers.get("Accept-Encoding", "")
        return any(
            token.split(";")[0].strip().lower() == "gzip"
            for token in accept.split(",")
        )

    def do_GET(self) -> None:
        full = self._resolve()
        if full is None:
            return
        try:
            size = os.stat(full).st_size
            f = open(full, "rb")
        except OSError as exc:
            self.send_error(500, f"read failed: {exc}")
            return
        with f:
            compress = (
                self.server.compression
                and size >= GZIP_MIN_BYTES
                and self._client_accepts_gzip()
            )
            self.send_response(200)
            self.send_header("Content-Type", "application/octet-stream")
            if compress:
                # Compressed length is unknowable up front without
                # buffering the whole body, so stream chunked instead
                # (HTTP/1.1 keep-alive survives either framing).
                self.send_header("Content-Encoding", "gzip")
                self.send_header("Transfer-Encoding", "chunked")
                self.end_headers()
                compressor = zlib.compressobj(wbits=16 + zlib.MAX_WBITS)
                while True:
                    chunk = f.read(_STREAM_CHUNK)
                    if not chunk:
                        break
                    data = compressor.compress(chunk)
                    if data:
                        self._write_chunk(data)
                tail = compressor.flush()
                if tail:
                    self._write_chunk(tail)
                self.wfile.write(b"0\r\n\r\n")
            else:
                # Identity: stream with the length from stat — the
                # file never lands in memory whole.  When the platform
                # and knob allow, the body goes kernel-to-kernel with
                # ``os.sendfile`` (no userspace copy at all); otherwise
                # fall back to bounded read/write chunks.
                self.send_header("Content-Length", str(size))
                self.end_headers()
                remaining = size
                if self._try_sendfile(f, size):
                    return
                while remaining > 0:
                    chunk = f.read(min(_STREAM_CHUNK, remaining))
                    if not chunk:
                        break
                    self.wfile.write(chunk)
                    remaining -= len(chunk)

    def _try_sendfile(self, f: Any, size: int) -> bool:
        """Send the whole identity body via ``os.sendfile``; returns
        False (having sent nothing) when the fast path is unavailable,
        so the caller's chunk loop can run instead."""
        from repro.io.serializers import zero_copy_enabled

        if not hasattr(os, "sendfile") or not zero_copy_enabled():
            return False
        try:
            self.wfile.flush()
            out_fd = self.connection.fileno()
            in_fd = f.fileno()
        except (OSError, ValueError, AttributeError):
            return False
        offset = 0
        try:
            while offset < size:
                sent = os.sendfile(out_fd, in_fd, offset, size - offset)
                if sent == 0:
                    break
                offset += sent
        except OSError:
            if offset == 0:
                # Nothing went out (e.g. filesystem without sendfile
                # support): the plain loop can still serve the request.
                return False
            raise  # mid-body failure: connection is unusable anyway
        return True

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")

    def do_HEAD(self) -> None:
        # Reports real existence and identity length for the concrete
        # path, so readers can probe a bucket before fetching it.
        full = self._resolve()
        if full is None:
            return
        try:
            size = os.stat(full).st_size
        except OSError as exc:
            self.send_error(500, f"stat failed: {exc}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(size))
        self.end_headers()


class DataServer(Listener):
    """Serve bucket files under ``root_dir`` over HTTP.

    Responses stream in bounded chunks (identity with ``Content-Length``
    from ``stat``, or chunked gzip when the client negotiates it via
    ``Accept-Encoding`` and ``compression`` is enabled).
    """

    thread_name = "data-server"

    def __init__(
        self,
        root_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        compression: bool = True,
    ):
        self.root_dir = os.path.realpath(root_dir)
        self.compression = compression
        super().__init__(_BucketRequestHandler, host, port)

    def url_for(self, path: str) -> str:
        """Return the URL that serves ``path`` (absolute or root-relative)."""
        if os.path.isabs(path):
            rel = os.path.relpath(os.path.realpath(path), self.root_dir)
            if rel.startswith(".."):
                raise ValueError(f"{path} is outside export root {self.root_dir}")
        else:
            rel = path
        quoted = urllib.parse.quote(rel.replace(os.sep, "/"))
        return f"http://{self.host}:{self.port}/{quoted}"


class _StatusRequestHandler(http.server.BaseHTTPRequestHandler):
    server: "StatusServer"
    protocol_version = "HTTP/1.1"
    server_version = "MrsStatus/1.0"

    #: Mutating control methods require the bearer token (when set).
    _MUTATING = frozenset({"POST", "DELETE", "PUT", "PATCH"})

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _authorized(self) -> bool:
        token = self.server.auth_token
        if not token:
            return True
        expected = token.encode("utf-8")
        header = self.headers.get("Authorization", "")
        # Bytes, not str: compare_digest raises TypeError on non-ASCII
        # str, which would turn a wrong token into a 500.
        if header.startswith("Bearer ") and hmac.compare_digest(
            header[7:].strip().encode("utf-8"), expected
        ):
            return True
        return hmac.compare_digest(
            self.headers.get("X-Mrs-Token", "").encode("utf-8"), expected
        )

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except (TypeError, ValueError):
            length = 0
        return self.rfile.read(length) if length > 0 else b""

    def _dispatch(self, method: str) -> None:
        parsed = urllib.parse.urlparse(self.path)
        route = parsed.path.rstrip("/") or "/status"
        query = urllib.parse.parse_qs(parsed.query)
        control = self.server.control
        is_control = control is not None and (
            route == "/jobs" or route.startswith("/jobs/")
        )
        if is_control and method in self._MUTATING and not self._authorized():
            # Refused before the body is read: an unauthenticated
            # client must not make the server wait for (or buffer) a
            # body it declared.  The unread body makes the connection
            # unusable, so it is closed after the answer.
            self.close_connection = True
            self._send_json(401, {"error": "missing or bad auth token"})
            return
        body = self._read_body()
        if is_control:
            try:
                code, payload = control.handle(method, route, body, query)
            except Exception as exc:
                self._send_json(500, {"error": repr(exc)})
                return
            self._send_json(code, payload)
            return
        if method != "GET":
            self._send_json(
                405, {"error": f"{method} not allowed on {route!r}"}
            )
            return
        views = self.server.views
        view = views.get(route)
        if view is None:
            self._send_json(
                404, {"error": f"no such view {route!r}",
                      "views": sorted(views)}
            )
            return
        try:
            payload = view(query)
        except Exception as exc:
            self._send_json(500, {"error": repr(exc)})
            return
        if isinstance(payload, RawResponse):
            self._send_raw(payload)
            return
        self._send_json(200, payload)

    def _send_raw(self, response: RawResponse) -> None:
        body = response.body.encode("utf-8")
        self.send_response(response.code)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    def _send_json(self, code: int, payload: Any) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)


class StatusServer(Listener):
    """JSON status endpoint over a running backend — and, with a
    ``control`` object attached, the job-server control surface.

    Read-only routes (always):

    * ``/status``    — the backend's live :meth:`status` snapshot
    * ``/metrics``   — Prometheus text exposition of the live job
      (``?format=json`` returns the aggregate ``Job.metrics()`` report)
    * ``/events``    — event ring tail; ``?since=N`` skips seq <= N

    Control routes (``control`` given — a
    :class:`repro.service.server.JobServer`):

    * ``POST /jobs``         — submit a registered program + args
    * ``GET /jobs``          — list jobs
    * ``GET /jobs/<id>``     — one job's state/progress/metrics
    * ``GET /jobs/<id>/events`` — the job's slice of the event ring
    * ``DELETE /jobs/<id>``  — cancel

    Mutating control requests require ``auth_token`` (when set) via
    ``Authorization: Bearer <token>`` or ``X-Mrs-Token``.
    """

    thread_name = "status-server"

    def __init__(
        self,
        backend: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        control: Any = None,
        auth_token: Optional[str] = None,
    ):
        self.backend = backend
        self.views: Dict[str, Callable[[Dict[str, Any]], Any]] = {
            "/status": lambda query: backend.status(),
            "/metrics": self._metrics_view,
            "/events": self._events_view,
        }
        self.control = control
        self.auth_token = auth_token
        super().__init__(_StatusRequestHandler, host, port)

    def _metrics_view(self, query: Dict[str, Any]) -> Any:
        # Default is the Prometheus text exposition; ``?format=json``
        # keeps the original aggregate metrics report for existing
        # JSON consumers.
        fmt = (query.get("format") or ["prometheus"])[0].lower()
        if fmt == "json":
            return self.backend.metrics()
        from repro.observability import telemetry as telemetry_mod

        return RawResponse(
            telemetry_mod.render_prometheus(self.backend),
            telemetry_mod.PROMETHEUS_CONTENT_TYPE,
        )

    def _events_view(self, query: Dict[str, Any]) -> Dict[str, Any]:
        observability = getattr(self.backend, "observability", None)
        events = getattr(observability, "events", None)
        if events is None:
            return {"enabled": False, "events": []}
        try:
            since = int(query.get("since", ["0"])[0])
        except (TypeError, ValueError):
            since = 0
        return {
            "enabled": True,
            "last_seq": events.last_seq,
            "events": events.snapshot(since_seq=since),
        }

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"
