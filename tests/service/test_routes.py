"""Routes on the job-server control surface.

A JobServer with no slaves and no jobs must still serve a well-formed
Prometheus ``/metrics`` exposition — the "telemetry works before the
first submission" contract — and must refuse an unauthenticated
mutation without reading the body it declares.
"""

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.core import options as options_mod
from repro.service.registry import ProgramRegistry
from repro.service.server import JobServer
from tests.observability.test_telemetry import assert_prometheus_text


def start_server(tmp_path, *flags):
    opts, _ = options_mod.parse_options(
        None, ["--mrs", "serve", "--mrs-tmpdir", str(tmp_path), *flags]
    )
    return JobServer(ProgramRegistry(), opts)


@pytest.fixture
def server(tmp_path):
    srv = start_server(tmp_path)
    try:
        yield srv
    finally:
        srv.shutdown(drain=False, timeout=5)


@pytest.fixture
def guarded(tmp_path):
    srv = start_server(tmp_path, "--mrs-auth-token", "sesame")
    try:
        yield srv
    finally:
        srv.shutdown(drain=False, timeout=5)


def fetch(server, path):
    url = f"{server.control_url}{path}"
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.headers["Content-Type"], resp.read().decode()


def test_metrics_is_prometheus_text(server):
    code, ctype, body = fetch(server, "/metrics")
    assert code == 200
    assert ctype.startswith("text/plain")
    typed = assert_prometheus_text(body)
    assert "mrs_up" in typed
    assert "mrs_tasks_total" in typed
    # Service-mode registry metrics flatten into the exposition too.
    assert "mrs_jobs_submitted_total 0" in body


def test_metrics_json_format_still_served(server):
    import json

    url = f"{server.control_url}/metrics?format=json"
    with urllib.request.urlopen(url, timeout=10) as resp:
        assert resp.status == 200
        assert resp.headers["Content-Type"] == "application/json"
        payload = json.loads(resp.read())
    assert payload["role"] == "master"


def test_dashboard_is_a_404_listing_the_views(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        fetch(server, "/dashboard")
    assert excinfo.value.code == 404
    body = json.loads(excinfo.value.read())
    assert "/status" in body["views"] and "/metrics" in body["views"]
    assert "/dashboard" not in body["views"]


def raw_request(server, head, body=b"", timeout=1.0):
    """Send one request over a bare socket; returns the response's
    status code and lower-cased header block.  Raises
    ``socket.timeout`` unless the headers arrive within ``timeout``
    seconds."""
    surface = server.status_server
    with socket.create_connection((surface.host, surface.port)) as sock:
        sock.settimeout(timeout)
        sock.sendall(head.encode("latin-1") + b"\r\n" + body)
        deadline = time.monotonic() + timeout
        answer = b""
        while b"\r\n\r\n" not in answer:
            if time.monotonic() > deadline:
                raise socket.timeout("no response headers")
            chunk = sock.recv(65536)
            if not chunk:
                break
            answer += chunk
    headers = answer.split(b"\r\n\r\n", 1)[0].decode("latin-1").lower()
    return int(headers.split(" ", 2)[1]), headers


def test_unauthenticated_huge_post_is_refused_before_its_body(guarded):
    """A declared 100 MB body that never comes must not make the server
    wait: the token is checked first and the connection closed."""
    head = (
        "POST /jobs HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Content-Type: application/json\r\n"
        "Content-Length: 100000000\r\n"
    )
    code, headers = raw_request(guarded, head)
    assert code == 401
    assert "connection: close" in headers


def test_non_ascii_token_is_a_401(guarded):
    head = (
        "POST /jobs HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Authorization: Bearer s\u00e9same\r\n"
        "Content-Length: 2\r\n"
    )
    code, _ = raw_request(guarded, head, b"{}")
    assert code == 401
