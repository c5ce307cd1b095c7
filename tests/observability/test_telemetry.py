"""The cluster telemetry plane: health sampling, the coordinator's
latest-sample-per-source view, shuffle skew as a view over a dataset's
buckets, the Prometheus renderer, and the offline analyzer.

Everything here runs on synthetic data with injected clocks — the
end-to-end piggyback paths are covered by the integration suites; these
tests pin the math and the wire-shape contracts.
"""

import json
import re

import pytest

from repro.core.dataset import BaseDataset
from repro.observability import Observability, skew
from repro.observability.analyze import (
    analyze,
    critical_path,
    main as analyze_main,
    slave_utilization,
)
from repro.observability.skew import gini, max_over_median
from repro.observability.telemetry import (
    SNAPSHOT_VERSION,
    HealthSampler,
    render_prometheus,
    sample_health,
    snapshot,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestHealthSampler:
    def test_sample_health_sanity(self, tmp_path):
        sample = sample_health(str(tmp_path))
        assert sample["t"] > 0
        assert sample["cpu_seconds"] >= 0.0
        # Sparse keys: whatever is present must be a positive float.
        for key in ("rss_bytes", "open_fds", "disk_free_bytes"):
            if key in sample:
                assert sample[key] > 0

    def test_throttle_window(self):
        clock = FakeClock()
        sampler = HealthSampler(interval=5.0, clock=clock)
        assert sampler.maybe_sample() is not None
        clock.advance(4.9)
        assert sampler.maybe_sample() is None
        clock.advance(0.2)
        assert sampler.maybe_sample() is not None

    def test_task_throughput_from_counter_deltas(self):
        clock = FakeClock()
        completed = [0.0]
        sampler = HealthSampler(
            interval=1.0, task_counter=lambda: completed[0], clock=clock
        )
        first = sampler.sample()
        assert first["tasks_completed"] == 0.0
        assert "task_throughput" not in first  # no previous sample
        completed[0] = 10.0
        clock.advance(2.0)
        second = sampler.sample()
        assert second["tasks_completed"] == 10.0
        assert second["task_throughput"] == pytest.approx(5.0)

    def test_broken_task_counter_degrades_gracefully(self):
        def broken():
            raise RuntimeError("torn down")

        sampler = HealthSampler(task_counter=broken)
        sample = sampler.sample()
        assert "tasks_completed" not in sample
        assert sample["cpu_seconds"] >= 0.0


@pytest.fixture
def transport(tmp_path):
    """An in-memory coordinator transport and a job on it."""
    from repro.core.job import Job
    from repro.core.options import default_options
    from tests.runtime.programs_mp import Tally
    from tests.runtime.test_coordinator import FakeTransport

    opts = default_options(tmpdir=str(tmp_path / "run"))
    program = Tally(opts, [])
    backend = FakeTransport(program, opts)
    yield backend, Job(backend, program), program
    backend.close()


def done_with_health(backend, worker, health):
    """Answer ``worker``'s next task with ``health`` piggybacked."""
    from repro.comm import protocol

    worker_id, descriptor = backend.sent.pop(0)
    assert worker_id == worker
    backend.task_done(
        worker_id,
        descriptor["dataset_id"],
        descriptor["task_index"],
        [(0, "file:/nowhere", True)],
        metrics=protocol.make_task_metrics(health=health),
    )


class TestLatestHealth:
    """One latest sample per source on the coordinator: done payloads
    and ping RTTs merge into it, later fields win."""

    def test_piggyback_merge_across_two_slaves(self, transport):
        backend, job, program = transport
        source = job.local_data([(i, i) for i in range(4)], splits=4)
        job.map_data(source, program.map, splits=1)
        done_with_health(backend, 1, {"t": 10.0, "cpu_seconds": 1.0})
        done_with_health(backend, 2, {"t": 10.0, "cpu_seconds": 9.0})
        with backend._lock:
            backend._note_health("slave-1", {"rtt_seconds": 0.002})
        latest = backend.telemetry()["latest"]
        assert latest["slave-2"]["cpu_seconds"] == 9.0
        assert latest["slave-1"] == {
            "t": 10.0, "cpu_seconds": 1.0, "rtt_seconds": 0.002,
        }
        # The coordinator samples itself on demand.
        assert latest["fake"]["cpu_seconds"] >= 0.0
        assert set(latest) == {"slave-1", "slave-2", "fake"}

    def test_later_fields_win(self, transport):
        backend, _, _ = transport
        with backend._lock:
            backend._note_health("slave-1", {"t": 100.0, "cpu_seconds": 1.0})
            backend._note_health("slave-1", {"t": 103.0, "rss_bytes": 7.0})
            backend._note_health("slave-1", {"t": 106.0, "cpu_seconds": 2.0})
        assert backend.telemetry()["latest"]["slave-1"] == {
            "t": 106.0, "cpu_seconds": 2.0, "rss_bytes": 7.0,
        }

    def test_empty_health_is_a_noop(self, transport):
        backend, job, program = transport
        source = job.local_data([(0, 0)], splits=1)
        job.map_data(source, program.map, splits=1)
        done_with_health(backend, 1, None)
        assert set(backend.telemetry()["latest"]) == {"fake"}

    def test_snapshot_shape(self, transport):
        """Health and skew, nothing else: the straggler block is gone
        (version 3)."""
        backend, _, _ = transport
        telemetry = backend.telemetry()
        assert set(telemetry) == {"version", "role", "latest", "skew"}
        assert telemetry["version"] == SNAPSHOT_VERSION == 3


class TestSkew:
    def test_gini_uniform_is_zero(self):
        assert gini([5.0, 5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_gini_concentrated_is_high(self):
        value = gini([0.0, 0.0, 0.0, 100.0])
        assert value == pytest.approx(0.75)

    def test_gini_undefined_cases(self):
        assert gini([]) is None
        assert gini([0.0, 0.0]) is None

    def test_max_over_median(self):
        assert max_over_median([1.0, 1.0, 4.0]) == pytest.approx(4.0)
        assert max_over_median([]) is None
        assert max_over_median([0.0, 0.0]) is None

    @staticmethod
    def sized_buckets(*sizes):
        """A dataset holding one bucket per ``(source, split, records,
        bytes)``, as the coordinator registers reported buckets."""
        dataset = BaseDataset(dataset_id="ds")
        for source, split, records, nbytes in sizes:
            bucket = dataset.bucket(source, split)
            bucket.url_size = (records, nbytes)
        return dataset.existing_buckets()

    def test_tracker_accumulates_across_tasks(self):
        # Two map tasks each emit into splits 0 and 1; split 1 is fat.
        buckets = self.sized_buckets(
            (0, 0, 10, 100), (0, 1, 10, 100), (1, 0, 10, 100), (1, 1, 90, 900)
        )
        summary = skew.summary({"ds": buckets})["ds"]
        assert summary["buckets"] == 2
        assert summary["records_total"] == 120
        assert summary["bytes_total"] == 1200
        assert summary["bytes_max"] == 1000
        assert summary["max_over_median_bytes"] == pytest.approx(
            1000.0 / 600.0
        )
        assert summary["gini_bytes"] > 0.0

    def test_forget_dataset(self, transport):
        """A released dataset's row goes with its buckets: nothing to
        forget separately."""
        backend, job, program = transport
        source = job.local_data([(i, i) for i in range(2)], splits=2)
        mapped = job.map_data(source, program.map, splits=1)
        while backend.sent:
            worker, descriptor = backend.sent.pop(0)
            backend.task_done(
                worker, mapped.id, descriptor["task_index"],
                [(0, f"file:/{descriptor['task_index']}", True, 1.0, 10.0)],
            )
        assert backend.telemetry()["skew"][mapped.id]["bytes_total"] == 20
        backend.remove_data(mapped.id)
        assert backend.telemetry()["skew"] == {}

    def test_malformed_triples_are_skipped(self, transport):
        """Buckets reported without a size (older triples) and input
        buckets are left out of the view."""
        backend, job, program = transport
        source = job.local_data([(i, i) for i in range(2)], splits=2)
        mapped = job.map_data(source, program.map, splits=2)
        (w0, d0), (w1, d1) = backend.sent
        backend.task_done(
            w0, mapped.id, d0["task_index"], [(0, "file:/a", True, 1.0, 10.0)]
        )
        backend.task_done(w1, mapped.id, d1["task_index"], [(1, "file:/b", True)])
        rows = backend.telemetry()["skew"]
        assert set(rows) == {mapped.id}
        assert rows[mapped.id]["buckets"] == 1
        assert rows[mapped.id]["bytes_total"] == 10


_PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9].*$"
)


def assert_prometheus_text(body):
    """Structural check of the text exposition format: every line is a
    comment or a sample, and every # TYPE names each metric once."""
    typed = []
    for line in body.strip().splitlines():
        if line.startswith("# TYPE "):
            parts = line.split()
            assert len(parts) == 4 and parts[3] in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ), line
            typed.append(parts[2])
        elif line.startswith("#"):
            continue
        else:
            assert _PROM_LINE.match(line), f"bad sample line: {line!r}"
    assert len(typed) == len(set(typed)), "duplicate # TYPE lines"
    return typed


class TestRenderers:
    class FakeBackend:
        def __init__(self):
            self.observability = Observability(role="master")
            self.observability.registry.counter("tasks.completed").inc(7)

        def status(self):
            return {
                "role": "master",
                "tasks": {"total": 4, "done": 2, "running": 1},
                "slaves": [
                    {"id": 1, "alive": True, "busy": True,
                     "address": "127.0.0.1:1"},
                    {"id": 2, "alive": False, "busy": False,
                     "address": "127.0.0.1:2"},
                ],
                "datasets": [
                    {"id": "ds", "complete": False, "error": None,
                     "progress": 0.5},
                ],
            }

        def telemetry(self):
            return snapshot(
                "master",
                latest={"slave-1": {
                    "t": 1.0, "cpu_seconds": 2.5, "rss_bytes": 1024.0,
                    "rtt_seconds": 0.001,
                }},
                skew=skew.summary({"ds": TestSkew.sized_buckets(
                    (0, 0, 1, 10), (0, 1, 9, 90)
                )}),
            )

    def test_prometheus_exposition_is_well_formed(self):
        body = render_prometheus(self.FakeBackend())
        typed = assert_prometheus_text(body)
        assert "mrs_up" in typed
        assert 'mrs_slave_up{slave="slave-1"} 1' in body
        assert 'mrs_slave_up{slave="slave-2"} 0' in body
        assert 'mrs_slave_cpu_seconds_total{slave="slave-1"} 2.5' in body
        assert 'mrs_dataset_progress{dataset="ds"} 0.5' in body
        assert 'mrs_skew_gini{dataset="ds"}' in body
        assert "straggler" not in body
        assert "mrs_tasks_completed_total 7" in body


class TestAnalyze:
    def rows(self):
        def committed(ds, index, end, seconds, slave):
            return {
                "seq": index + 1, "t": end, "name": "task.committed",
                "pid": 1, "role": "master",
                "fields": {"dataset_id": ds, "task_index": index,
                           "seconds": seconds, "slave": slave},
            }

        # Map wave (parallel on 2 slaves), then one reduce task that
        # could only start after the last map committed.
        return [
            committed("job-1.map", 0, 2.0, 2.0, 1),
            committed("job-1.map", 1, 3.0, 3.0, 2),
            committed("job-1.reduce", 0, 5.0, 2.0, 1),
            committed("job-2.map", 0, 4.0, 1.0, 1),
        ]

    def test_jobs_are_grouped_by_namespace(self):
        report = analyze(self.rows())
        assert set(report["jobs"]) == {"job-1", "job-2"}
        assert report["jobs"]["job-1"]["tasks"] == 3
        assert report["jobs"]["job-2"]["tasks"] == 1

    def test_critical_path_walks_back_greedily(self):
        report = analyze(self.rows())
        chain = report["jobs"]["job-1"]["critical_path"]["chain"]
        # reduce (ends 5, starts 3) <- map[1] (ends 3): the 3s map and
        # the reduce bound the wall; map[0] is off-path.
        assert [(h["dataset_id"], h["task_index"]) for h in chain] == [
            ("job-1.map", 1), ("job-1.reduce", 0),
        ]
        assert report["jobs"]["job-1"]["critical_path"][
            "seconds"
        ] == pytest.approx(5.0)
        assert report["jobs"]["job-1"]["wall_seconds"] == pytest.approx(5.0)

    def test_slave_utilization_over_job_window(self):
        tasks = [
            {"start": 0.0, "end": 2.0, "seconds": 2.0, "slave": 1,
             "dataset_id": "d", "task_index": 0},
            {"start": 0.0, "end": 4.0, "seconds": 4.0, "slave": 2,
             "dataset_id": "d", "task_index": 1},
        ]
        util = slave_utilization(tasks)
        assert util["1"]["utilization"] == pytest.approx(0.5)
        assert util["2"]["utilization"] == pytest.approx(1.0)
        assert util["1"]["tasks"] == 1

    def test_critical_path_empty(self):
        assert critical_path([]) == []

    def test_cli_text_and_json(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text(
            "\n".join(json.dumps(r) for r in self.rows()) + "\n"
        )
        assert analyze_main([str(log)]) == 0
        out = capsys.readouterr().out
        assert "== job-1 ==" in out and "critical path" in out
        assert analyze_main([str(log), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert "job-1" in report["jobs"]

    def test_cli_missing_file(self, tmp_path, capsys):
        assert analyze_main([str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err
