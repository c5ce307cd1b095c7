"""The live observability plane, end to end on real backends.

Covers the acceptance criteria for the event-log/trace/status work:
every backend's ``--mrs-event-log`` JSONL has complete, seq-ordered
per-task lifecycles; ``--mrs-trace`` output passes the Perfetto
structural checks; ``Job.status()``, the progress ticker, and the
``--mrs-status-http`` endpoint all render the same live view; and
cross-process span merging never double-counts compute.
"""

import io
import json
import threading
import urllib.request

import pytest

import repro as mrs
from repro.core.job import Backend
from repro.core.main import run_program
from repro.observability import Observability
from repro.observability.events import read_jsonl
from repro.observability.progress import ProgressTicker, format_status_line
from repro.observability.timeline import trace_from_jsonl
from tests.observability.test_integration import WordCount
from tests.observability.test_timeline import assert_perfetto_structure

#: Lifecycle every committed task must log, in seq order.
LIFECYCLE = ("task.queued", "task.started", "task.committed")


class MaterializedWordCount(WordCount):
    """WordCount that collects its output inside run(): backends that
    own their tmpdir (multiprocess) delete task output on close."""

    def run(self, job):
        status = super().run(job)
        self.counts = dict(self.output_data.iterdata())
        return status


def run_with_event_log(impl, tmp_path, **extra):
    log_path = str(tmp_path / "events.jsonl")
    trace_path = str(tmp_path / "trace.json")
    program = run_program(
        MaterializedWordCount, [], impl=impl,
        event_log=log_path, trace=trace_path, **extra,
    )
    assert program.counts["the"] == 3
    return log_path, trace_path


def lifecycle_by_task(events):
    tasks = {}
    for event in events:
        fields = event.get("fields") or {}
        if "dataset_id" in fields and "task_index" in fields:
            key = (fields["dataset_id"], fields["task_index"])
            tasks.setdefault(key, []).append(event)
    return tasks


class TestBackendEventLogs:
    """One run per backend; JSONL complete and ordered, trace valid."""

    @pytest.mark.parametrize("impl", ["serial", "mockparallel"])
    def test_single_process_backends(self, impl, tmp_path):
        self.check(impl, tmp_path)

    def test_multiprocess_backend(self, tmp_path):
        self.check("multiprocess", tmp_path, procs=2)

    def check(self, impl, tmp_path, **extra):
        log_path, trace_path = run_with_event_log(impl, tmp_path, **extra)
        events = read_jsonl(log_path)

        # Per-process sequence numbers are complete and in file order.
        by_pid = {}
        for event in events:
            by_pid.setdefault(event["pid"], []).append(event["seq"])
        for pid, seqs in by_pid.items():
            assert seqs == list(range(1, len(seqs) + 1)), (
                f"pid {pid} seq gap or reorder"
            )

        # Every task logged its full lifecycle, in order, with phases
        # between started and committed.
        tasks = lifecycle_by_task(events)
        assert len(tasks) == WordCount.N_TASKS
        for key, task_events in tasks.items():
            names = [e["name"] for e in task_events]
            positions = [names.index(name) for name in LIFECYCLE]
            assert positions == sorted(positions), (
                f"task {key} lifecycle out of order: {names}"
            )
            phase_names = [
                e["fields"]["phase"]
                for e in task_events
                if e["name"] == "task.phase"
            ]
            assert "map" in phase_names or "reduce" in phase_names
            first_phase = names.index("task.phase")
            assert names.index("task.started") < first_phase
            assert first_phase < names.index("task.committed")

        # Dataset lifecycle: submitted before complete, both present.
        names = [e["name"] for e in events]
        assert names.count("dataset.submitted") == 2  # map + reduce
        assert names.count("dataset.complete") == 2
        assert names.index("dataset.submitted") < names.index(
            "dataset.complete"
        )

        # The trace written alongside passes the Perfetto checks and
        # matches a rebuild from the JSONL.
        with open(trace_path) as f:
            trace = json.load(f)
        assert_perfetto_structure(trace)
        task_begins = [e for e in trace["traceEvents"]
                       if e["ph"] == "B" and e.get("cat") == "task"]
        assert len(task_begins) == WordCount.N_TASKS
        assert_perfetto_structure(trace_from_jsonl(log_path))


@pytest.mark.integration
class TestClusterEventLog:
    def test_master_slave_lifecycle_and_trace(self, tmp_path):
        from repro.apps.pi.estimator import PiEstimator
        from repro.runtime.cluster import LocalCluster

        log_path = str(tmp_path / "events.jsonl")
        trace_path = str(tmp_path / "trace.json")
        flags = ["--pi-samples", "4000", "--pi-tasks", "4"]
        with LocalCluster(
            PiEstimator, flags, n_slaves=2,
            opt_overrides={"event_log": log_path, "trace": trace_path},
        ) as cluster:
            cluster.run()
        events = read_jsonl(log_path)
        names = [e["name"] for e in events]
        assert names.count("slave.signin") == 2
        tasks = lifecycle_by_task(events)
        assert len(tasks) >= 4
        for key, task_events in tasks.items():
            task_names = [e["name"] for e in task_events]
            positions = [task_names.index(n) for n in LIFECYCLE]
            assert positions == sorted(positions)
            # Slave-side phases were piggybacked and re-anchored.
            assert "task.phase" in task_names
        with open(trace_path) as f:
            trace = json.load(f)
        assert_perfetto_structure(trace)
        thread_names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert any(name.startswith("slave-") for name in thread_names)


class TestJobStatus:
    def test_serial_status_mid_run(self):
        class Introspective(WordCount):
            def run(self, job):
                status = super().run(job)
                self.live_status = job.status()
                return status

        program = run_program(Introspective, [], impl="serial")
        status = program.live_status
        assert status["role"] == "serial"
        assert status["tasks"] == {
            "total": WordCount.N_TASKS,
            "done": WordCount.N_TASKS,
            "running": 0,
        }
        assert status["overhead_fraction"] is not None
        assert 0.0 <= status["overhead_fraction"] <= 1.0
        assert status["eta_seconds"] is None  # nothing remaining

    def test_multiprocess_status_includes_pool_state(self):
        class Introspective(WordCount):
            def run(self, job):
                status = super().run(job)
                self.live_status = job.status()
                return status

        program = run_program(Introspective, [], impl="multiprocess", procs=2)
        status = program.live_status
        assert status["role"] == "multiprocess"
        assert status["workers"]["alive"] == 2
        assert status["tasks"]["done"] == WordCount.N_TASKS
        assert status["outstanding"] == 0

    def test_status_reports_event_log_position(self, tmp_path):
        class Introspective(WordCount):
            def run(self, job):
                status = super().run(job)
                self.live_status = job.status()
                return status

        program = run_program(
            Introspective, [], impl="serial",
            event_log=str(tmp_path / "e.jsonl"),
        )
        events_view = program.live_status["events"]
        assert events_view["last_seq"] > 0
        assert events_view["log_path"].endswith("e.jsonl")

    def test_backend_without_observability_reports_empty(self):
        assert Backend().status() == {}


class TestProgressTicker:
    def sample_status(self):
        return {
            "role": "serial",
            "tasks": {"total": 10, "done": 4, "running": 2},
            "eta_seconds": 3.21,
            "overhead_fraction": 0.25,
        }

    def test_format_status_line(self):
        line = format_status_line(self.sample_status())
        assert line == "[mrs] 4/10 tasks (40%)  eta 3.2s  overhead 25%  2 running"

    def test_format_handles_sparse_status(self):
        assert format_status_line({}) == "[mrs] 0/0 tasks (0%)"

    def test_ticker_renders_to_stream_and_stops(self):
        class FakeBackend:
            def status(self):
                return {
                    "role": "serial",
                    "tasks": {"total": 5, "done": 5, "running": 0},
                }

        stream = io.StringIO()
        ticker = ProgressTicker(FakeBackend(), interval=0.01, stream=stream)
        with ticker:
            pass  # stop() renders a final line even if no tick fired
        out = stream.getvalue()
        assert "[mrs] 5/5 tasks (100%)" in out
        assert out.endswith("\n")

    def test_ticker_survives_broken_backend(self):
        class Broken:
            def status(self):
                raise RuntimeError("torn down")

        stream = io.StringIO()
        with ProgressTicker(Broken(), interval=0.01, stream=stream):
            pass  # must not raise


class TestStatusServer:
    """The --mrs-status-http JSON endpoint over a live backend."""

    class FakeBackend:
        def __init__(self):
            self.observability = Observability(role="serial")
            self.observability.enable_events()
            self.observability.events.emit("task.started", task_index=0)

        def status(self):
            return self.observability.status_view()

        def metrics(self):
            return self.observability.report()

    @pytest.fixture
    def server(self):
        from repro.comm.dataserver import StatusServer

        server = StatusServer(self.FakeBackend())
        yield server
        server.shutdown()

    def get(self, server, route):
        with urllib.request.urlopen(server.url + route, timeout=5) as resp:
            return resp.status, json.loads(resp.read())

    def test_status_view(self, server):
        code, payload = self.get(server, "/status")
        assert code == 200
        assert payload["role"] == "serial"
        assert "tasks" in payload

    def test_metrics_view_json(self, server):
        # The default /metrics is now Prometheus text; ?format=json
        # keeps the original aggregate report for JSON consumers.
        code, payload = self.get(server, "/metrics?format=json")
        assert code == 200
        assert payload["version"] == 1
        assert payload["role"] == "serial"

    def test_metrics_view_prometheus_default(self, server):
        with urllib.request.urlopen(server.url + "/metrics", timeout=5) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            body = resp.read().decode("utf-8")
        assert "mrs_up 1" in body
        assert "# TYPE mrs_up gauge" in body

    def test_events_view_with_since(self, server):
        code, payload = self.get(server, "/events?since=0")
        assert code == 200
        assert payload["enabled"] is True
        assert [e["name"] for e in payload["events"]] == ["task.started"]
        code, payload = self.get(server, f"/events?since={payload['last_seq']}")
        assert payload["events"] == []

    def test_unknown_route_404_lists_views(self, server):
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.get(server, "/nope")
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read())
        assert "/status" in body["views"]


class TestCrossProcessSpanMerge:
    """Satellite: a slave-reported duration set and the master's local
    span for the same (dataset, task) must never double-count compute
    in operations() rows."""

    def simulate_master_side(self):
        """The master's half of _record_task_metrics: a local span that
        only saw queued/started/committed, plus the slave's piggybacked
        durations attached via add_duration."""
        obs = Observability(role="master")
        obs.note_operation("ds1", "map")
        span = obs.tracer.span("ds1", 0)
        span.mark("queued", timestamp=0.0)
        span.mark("started", timestamp=0.1)
        # Slave-side durations ride the done RPC (fetch 0.05, map 0.5,
        # serialize 0.1, transfer 0.05 — slave wall 0.7s).
        for event, seconds in [
            ("started", 0.05), ("map", 0.5),
            ("serialize", 0.1), ("transfer", 0.05),
        ]:
            span.add_duration(event, seconds)
        span.mark("committed", timestamp=0.9)
        return obs

    def test_compute_counted_exactly_once(self):
        obs = self.simulate_master_side()
        (row,) = obs.operations_breakdown()
        # Compute is the slave's measured 0.5 s of map — attached once,
        # not re-derived from the master's own queued->committed gap.
        assert row["compute_seconds"] == pytest.approx(0.5)
        assert row["wall_seconds"] == pytest.approx(0.9)
        assert row["overhead_seconds"] == pytest.approx(0.4)
        assert row["serialize_seconds"] == pytest.approx(0.1)

    def test_merge_is_per_task_not_cumulative(self):
        """Committing a second task must not inflate the first task's
        durations (add_duration is per-span, per-completion)."""
        obs = self.simulate_master_side()
        span2 = obs.tracer.span("ds1", 1)
        span2.mark("queued", timestamp=0.0)
        span2.mark("started", timestamp=0.1)
        span2.add_duration("map", 0.2)
        span2.mark("committed", timestamp=0.4)
        (row,) = obs.operations_breakdown()
        assert row["tasks"] == 2
        assert row["compute_seconds"] == pytest.approx(0.7)

    @pytest.mark.integration
    def test_cluster_operations_rows_are_consistent(self, tmp_path):
        """On a real cluster run, per-operation compute must stay within
        wall: the invariant double-counting would break."""
        from repro.apps.pi.estimator import PiEstimator
        from repro.runtime.cluster import LocalCluster

        flags = ["--pi-samples", "4000", "--pi-tasks", "4"]
        with LocalCluster(PiEstimator, flags, n_slaves=2) as cluster:
            cluster.run()
            report = cluster.backend.metrics()
        assert report["operations"]
        for op in report["operations"]:
            assert 0.0 <= op["compute_seconds"] <= op["wall_seconds"]
            assert op["overhead_seconds"] == pytest.approx(
                op["wall_seconds"] - op["compute_seconds"]
            )


class TestTaskProfiler:
    def test_keeps_n_slowest_and_marks_spans(self, tmp_path):
        import time

        from repro.observability.profiling import TaskProfiler
        from repro.observability.tracing import TaskSpan

        profiler = TaskProfiler(keep=2, directory=str(tmp_path))
        spans = []
        for index, sleep in enumerate([0.001, 0.05, 0.002, 0.08]):
            span = TaskSpan("ds1", index)
            spans.append(span)
            profiler.run(
                time.sleep, sleep,
                profile_dataset_id="ds1",
                profile_task_index=index,
                profile_span=span,
            )
        retained = profiler.retained()
        assert len(retained) == 2
        # The two slowest tasks (indices 3 and 1) own the profiles.
        marked = [s.task_index for s in spans if s.profile_path is not None]
        assert sorted(marked) == [1, 3]
        import os

        for seconds, path in retained:
            assert os.path.exists(path)
        # Evicted profiles are deleted and their spans cleared.
        assert len(list(tmp_path.iterdir())) == 2
        for span in spans:
            if span.profile_path is not None:
                assert os.path.exists(span.profile_path)

    def test_profiled_task_emits_event(self, tmp_path):
        """The event is derived from the span the profiler marked."""
        log_path = str(tmp_path / "events.jsonl")
        run_program(
            WordCount, [], impl="serial",
            profile_tasks=1, tmpdir=str(tmp_path), event_log=log_path,
        )
        profiled = [
            e for e in read_jsonl(log_path) if e["name"] == "task.profiled"
        ]
        assert profiled
        for event in profiled:
            assert event["fields"]["path"].endswith(".pstats")
            assert event["fields"]["seconds"] > 0

    def test_profile_kwargs_never_collide_with_fn_kwargs(self, tmp_path):
        """The consumed keywords are namespaced profile_*; fn's own
        keywords (including one literally named 'span') pass through."""
        from repro.observability.profiling import TaskProfiler

        profiler = TaskProfiler(keep=1, directory=str(tmp_path))

        def fn(value, span=None):
            return value, span

        result = profiler.run(
            fn, 7, span="user-kwarg",
            profile_dataset_id="ds1", profile_task_index=0,
        )
        assert result == (7, "user-kwarg")

    def test_profiler_from_opts(self, tmp_path):
        from repro.observability.profiling import profiler_from_opts

        class Opts:
            profile_tasks = 0
            tmpdir = str(tmp_path)

        assert profiler_from_opts(Opts()) is None
        Opts.profile_tasks = 3
        profiler = profiler_from_opts(Opts())
        assert profiler.keep == 3
        assert profiler.directory.startswith(str(tmp_path))

    def test_serial_run_attaches_profiles_to_report(self, tmp_path):
        program = run_program(
            WordCount, [], impl="serial",
            profile_tasks=2, tmpdir=str(tmp_path),
        )
        profiled = [
            span for span in program.metrics_report["spans"]
            if span.get("profile")
        ]
        assert len(profiled) == 2
        import os

        for span in profiled:
            assert os.path.exists(span["profile"])
