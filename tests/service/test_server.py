"""JobServer integration: a warm server multiplexing real slaves.

One module-scoped server with two slave subprocesses backs most tests
here — exactly the service-mode promise (job N+1 pays no startup), and
it keeps the suite fast.  Outputs are compared byte-identical against
serial runs of the same programs.
"""

import os
import socket
import threading
import time

import pytest

from repro.apps.wordcount import WordCountCombined
from repro.core import options as options_mod
from repro.core.job import Job
from repro.core.main import run_program
from repro.service import submit as submit_mod
from repro.service.registry import ProgramRegistry
from repro.service.server import JobServer

TERMINAL = ("done", "failed", "canceled")


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    base = tmp_path_factory.mktemp("service_run")
    opts, _ = options_mod.parse_options(
        None, ["--mrs", "serve", "--mrs-tmpdir", str(base)]
    )
    registry = ProgramRegistry()
    registry.register("wordcount", WordCountCombined)
    registry.register("failing", "tests.integration.programs:FailingMap")
    registry.register("slow", "tests.integration.programs:SlowCount")
    srv = JobServer(registry, opts)
    try:
        assert srv.spawn_slaves(2) >= 2
        yield srv
    finally:
        srv.shutdown(drain=True, timeout=60)


def get(server, path):
    return submit_mod._request("GET", f"{server.control_url}{path}")


def submit(server, program, args):
    return submit_mod._request(
        "POST",
        f"{server.control_url}/jobs",
        payload={"program": program, "args": args},
    )


def wait_terminal(server, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        view = get(server, f"/jobs/{job_id}")
        if view["state"] in TERMINAL:
            return view
        time.sleep(0.1)
    raise AssertionError(f"{job_id} not terminal after {timeout}s")


def output_lines(outdir):
    """Sorted concatenation of the visible output lines — the
    byte-identity witness used across implementations."""
    lines = []
    for name in sorted(os.listdir(outdir)):
        if name.startswith("."):
            continue
        with open(os.path.join(outdir, name), "rb") as f:
            lines += f.read().splitlines()
    return sorted(lines)


def make_input(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def serial_lines(tmp_path, infile, tag):
    outdir = tmp_path / f"serial_{tag}"
    run_program(WordCountCombined, [infile, str(outdir)], impl="serial")
    return output_lines(str(outdir))


class TestSingleJob:
    def test_byte_identical_vs_serial(self, server, tmp_path):
        infile = make_input(
            tmp_path, "in.txt", "the quick brown fox the dog\n" * 40
        )
        outdir = tmp_path / "out"
        view = submit(server, "wordcount", [infile, str(outdir)])
        final = wait_terminal(server, view["id"])
        assert final["state"] == "done"
        got = output_lines(str(outdir))
        assert got and got == serial_lines(tmp_path, infile, "one")

    def test_view_carries_job_slice(self, server, tmp_path):
        infile = make_input(tmp_path, "in2.txt", "alpha beta beta\n" * 10)
        outdir = tmp_path / "out2"
        view = submit(server, "wordcount", [infile, str(outdir)])
        final = wait_terminal(server, view["id"])
        assert final["job_id"] == view["id"]
        assert final["latency_seconds"] > 0
        # Released after completion: the per-job registry survives...
        counters = final["metrics"].get("counters", {})
        assert counters.get("tasks.completed", 0) >= 1
        # ...but the datasets themselves have been forgotten.
        assert final["datasets"] == []

    def test_unknown_program_is_404(self, server):
        with pytest.raises(submit_mod.SubmitError, match="404"):
            submit(server, "nope", [])

    def test_unknown_job_is_404(self, server):
        with pytest.raises(submit_mod.SubmitError, match="404"):
            get(server, "/jobs/job-999999")


class TestConcurrency:
    N_JOBS = 8

    def test_eight_concurrent_jobs_byte_identical(self, server, tmp_path):
        """The acceptance bar: a warm server sustains >= 8 concurrent
        submissions, each output byte-identical to its serial run."""
        inputs, outdirs = [], []
        for i in range(self.N_JOBS):
            text = f"word{i} common word{i} unique{i}\n" * (10 + i)
            inputs.append(make_input(tmp_path, f"in_{i}.txt", text))
            outdirs.append(str(tmp_path / f"out_{i}"))

        views = [None] * self.N_JOBS
        errors = []

        def submit_one(i):
            try:
                view = submit(server, "wordcount", [inputs[i], outdirs[i]])
                views[i] = wait_terminal(server, view["id"])
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append((i, exc))

        threads = [
            threading.Thread(target=submit_one, args=(i,))
            for i in range(self.N_JOBS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(180)
        assert not errors, errors
        assert all(v and v["state"] == "done" for v in views), views
        for i in range(self.N_JOBS):
            got = output_lines(outdirs[i])
            assert got == serial_lines(tmp_path, inputs[i], str(i)), (
                f"job {i} output diverged"
            )

    def test_failing_job_does_not_disturb_others(self, server, tmp_path):
        infile = make_input(tmp_path, "ok.txt", "solid ground\n" * 20)
        outdir = tmp_path / "ok_out"
        bad = submit(server, "failing", [])
        good = submit(server, "wordcount", [infile, str(outdir)])
        bad_final = wait_terminal(server, bad["id"])
        good_final = wait_terminal(server, good["id"])
        assert bad_final["state"] == "failed"
        # The driver sees the propagated dataset failure chain.
        assert "failed" in (bad_final["error"] or "")
        assert good_final["state"] == "done"
        assert output_lines(str(outdir)) == serial_lines(
            tmp_path, infile, "ok"
        )

    def test_cancel_running_job_releases_and_server_survives(
        self, server, tmp_path
    ):
        slow_out = tmp_path / "slow_out"
        view = submit(server, "slow", [str(slow_out)])
        job_id = view["id"]
        # Let it genuinely start before canceling.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            live = get(server, f"/jobs/{job_id}")
            if live["state"] in TERMINAL or (
                live["state"] == "running"
                and live.get("dispatched_tasks", 0) >= 1
            ):
                break
            time.sleep(0.05)
        result = submit_mod._request(
            "DELETE", f"{server.control_url}/jobs/{job_id}"
        )
        assert result["state"] in ("running", "canceled")
        final = wait_terminal(server, job_id)
        assert final["state"] == "canceled"
        # Mid-run cancel must not leak the job's run directories.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            leftovers = [
                name
                for name in os.listdir(server.backend.tmpdir)
                if name.startswith(f"{job_id}.")
            ]
            if not leftovers:
                break
            time.sleep(0.1)
        assert not leftovers, f"canceled job leaked run dirs: {leftovers}"
        # And the warm server keeps serving.
        infile = make_input(tmp_path, "after.txt", "still alive\n" * 10)
        outdir = tmp_path / "after_out"
        after = submit(server, "wordcount", [infile, str(outdir)])
        assert wait_terminal(server, after["id"])["state"] == "done"

    def test_listing_and_queue_state(self, server):
        listing = get(server, "/jobs")
        assert listing["max_concurrent"] >= 8
        assert "wordcount" in listing["programs"]
        assert listing["slaves"] >= 2
        assert all(j["state"] in TERMINAL for j in listing["jobs"])


class TestStatusReaders:
    def test_concurrent_readers_while_tasks_complete(self, server, tmp_path):
        """N reader threads hammer Job.status(), the backend's job
        slice, and the status/control HTTP surface while a job runs —
        no reader may ever see an exception or a torn view."""
        slow_out = tmp_path / "readers_out"
        view = submit(server, "slow", [str(slow_out)])
        job_id = view["id"]
        stop = threading.Event()
        failures = []
        job_facade = Job(server.backend)

        def read_loop(which):
            try:
                while not stop.is_set():
                    if which == 0:
                        snapshot = job_facade.status()
                        assert "tasks" in snapshot or snapshot == {}
                    elif which == 1:
                        server.backend.job_status(job_id)
                    elif which == 2:
                        get(server, "/status")
                    elif which == 3:
                        get(server, f"/jobs/{job_id}")
                    else:
                        get(server, "/jobs")
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append((which, exc))

        readers = [
            threading.Thread(target=read_loop, args=(i % 5,))
            for i in range(10)
        ]
        for reader in readers:
            reader.start()
        try:
            final = wait_terminal(server, job_id)
        finally:
            stop.set()
            for reader in readers:
                reader.join(10)
        assert not failures, failures
        assert final["state"] == "done"
        assert output_lines(str(slow_out))


class TestAuth:
    def test_mutating_requests_require_token(self, tmp_path):
        opts, _ = options_mod.parse_options(
            None,
            [
                "--mrs",
                "serve",
                "--mrs-tmpdir",
                str(tmp_path / "run"),
                "--mrs-auth-token",
                "sesame",
            ],
        )
        registry = ProgramRegistry()
        registry.register("wordcount", WordCountCombined)
        infile = make_input(tmp_path, "in.txt", "guarded words\n")
        srv = JobServer(registry, opts)
        try:
            url = f"{srv.control_url}/jobs"
            payload = {
                "program": "wordcount",
                "args": [infile, str(tmp_path / "out")],
            }
            with pytest.raises(submit_mod.SubmitError, match="401"):
                submit_mod._request("POST", url, payload=payload)
            with pytest.raises(submit_mod.SubmitError, match="401"):
                submit_mod._request(
                    "POST", url, payload=payload, token="wrong"
                )
            # Reads stay open; mutations need the token.
            assert submit_mod._request("GET", url)["jobs"] == []
            view = submit_mod._request(
                "POST", url, payload=payload, token="sesame"
            )
            with pytest.raises(submit_mod.SubmitError, match="401"):
                submit_mod._request("DELETE", f"{url}/{view['id']}")
            canceled = submit_mod._request(
                "DELETE", f"{url}/{view['id']}", token="sesame"
            )
            assert canceled["state"] in ("running", "canceled")
        finally:
            srv.shutdown(drain=False, timeout=5)


class TestFailedStart:
    def test_taken_status_port_leaves_nothing_behind(self, launch_leftovers):
        """A JobServer whose control port is taken closes the master it
        had already started: no RPC server or watchdog thread and no
        run directory outlive the failed start."""
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            opts, _ = options_mod.parse_options(
                None, ["--mrs", "serve", "--mrs-status-http", str(port)]
            )
            with pytest.raises(OSError):
                JobServer(ProgramRegistry(), opts)
        assert launch_leftovers() == []


class TestSubmitClient:
    def test_end_to_end_cli(self, server, tmp_path, capsys):
        infile = make_input(tmp_path, "cli.txt", "client side words\n" * 5)
        outdir = tmp_path / "cli_out"
        rc = submit_mod.main(
            [
                "--server",
                server.control_url,
                "--poll-interval",
                "0.1",
                "wordcount",
                infile,
                str(outdir),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.strip().startswith("job-")
        assert output_lines(str(outdir)) == serial_lines(
            tmp_path, infile, "cli"
        )

    def test_cli_list_and_status(self, server, capsys):
        assert submit_mod.main(
            ["--server", server.control_url, "--list"]
        ) == 0
        listing = capsys.readouterr().out
        assert '"jobs"' in listing

    def test_cli_usage_errors(self, capsys):
        assert submit_mod.main([]) == 2  # no server
        assert (
            submit_mod.main(["--server", "http://127.0.0.1:1"]) == 2
        )  # no program
