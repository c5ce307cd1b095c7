"""JSON report round-trips and reader helpers."""

import os

import pytest

from repro.observability import Observability, export
from repro.observability.metrics import MetricsRegistry


def sample_report():
    obs = Observability(role="serial")
    obs.registry.counter("tasks.completed").inc(4)
    obs.registry.histogram("task.seconds").observe(0.5)
    obs.note_operation("ds1", "map")
    span = obs.tracer.span("ds1", 0)
    span.mark("queued", timestamp=0.0)
    span.mark("started", timestamp=0.1)
    span.mark("map", timestamp=0.6)
    span.mark("committed", timestamp=0.7)
    obs.mark_startup_complete()
    return obs.report()


class TestRoundTrip:
    def test_render_parse_preserves_counters(self):
        report = sample_report()
        parsed = export.parse_json(export.render_json(report))
        assert parsed["metrics"]["counters"] == {
            "operations.map": 1.0,
            "tasks.completed": 4.0,
        }
        assert parsed == report  # the whole report survives, not just counters

    def test_file_round_trip(self, tmp_path):
        report = sample_report()
        path = str(tmp_path / "metrics.json")
        assert export.write_json(report, path) == path
        assert export.read_json(path) == report

    def test_write_creates_parent_directory(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "m.json")
        export.write_json(sample_report(), path)
        assert os.path.exists(path)

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = str(tmp_path / "m.json")
        export.write_json(sample_report(), path)
        assert os.listdir(tmp_path) == ["m.json"]

    def test_parse_rejects_non_object(self):
        with pytest.raises(ValueError):
            export.parse_json("[1, 2, 3]")


class TestVersionValidation:
    def test_current_version_accepted(self):
        report = sample_report()
        assert report["version"] == export.REPORT_VERSION
        assert export.parse_json(export.render_json(report)) == report

    def test_missing_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            export.parse_json('{"role": "serial"}')

    @pytest.mark.parametrize("version", ['"1"', "1.5", "null", "true"])
    def test_non_integer_version_rejected(self, version):
        with pytest.raises(ValueError, match="version"):
            export.parse_json('{"version": %s}' % version)

    def test_future_version_rejected_with_clear_error(self):
        future = export.REPORT_VERSION + 1
        with pytest.raises(ValueError, match=f"version {future} is newer"):
            export.parse_json('{"version": %d}' % future)

    def test_older_version_still_parses(self):
        """Version 0 never shipped, but the reader's contract is
        'reject only *newer*': old reports must stay readable."""
        assert export.parse_json('{"version": 0}')["version"] == 0


class TestReaderHelpers:
    def test_startup_seconds(self):
        report = sample_report()
        assert export.startup_seconds(report) == report["startup"]["seconds"]
        assert export.startup_seconds({}) == 0.0
        assert export.startup_seconds({"startup": {"seconds": None}}) == 0.0

    def test_phase_seconds(self):
        report = sample_report()
        assert export.phase_seconds(report, "map") == 0.5
        assert export.phase_seconds(report, "shuffle") == 0.0

    def test_span_count(self):
        assert export.span_count(sample_report()) == 1
        assert export.span_count({}) == 0

    def test_operation_overhead(self):
        report = sample_report()
        # wall = 0.7, compute (map) = 0.5 -> overhead 0.2
        assert export.operation_overhead_seconds(report) == pytest.approx(0.2)


class TestObservabilityFacade:
    def test_startup_mark_is_idempotent(self):
        obs = Observability()
        first = obs.mark_startup_complete()
        assert obs.mark_startup_complete() == first
        assert obs.registry.gauge("startup.seconds").value == first

    def test_report_before_startup_has_null_startup(self):
        report = Observability().report()
        assert report["startup"]["seconds"] is None
        assert report["summary"]["startup_seconds"] == 0.0

    def test_operations_breakdown_aggregates_spans(self):
        obs = Observability()
        obs.note_operation("ds1", "map")
        for index, (t_map, t_commit) in enumerate([(0.4, 0.5), (0.6, 0.7)]):
            span = obs.tracer.span("ds1", index)
            span.mark("started", timestamp=0.0)
            span.mark("map", timestamp=t_map)
            span.mark("committed", timestamp=t_commit)
        (row,) = obs.operations_breakdown()
        assert row["kind"] == "map"
        assert row["tasks"] == 2
        assert row["wall_seconds"] == pytest.approx(1.2)
        assert row["compute_seconds"] == pytest.approx(1.0)
        assert row["overhead_seconds"] == pytest.approx(0.2)

    def test_merge_remote_folds_slave_registry(self):
        obs = Observability(role="master")
        remote = MetricsRegistry()
        remote.counter("slave.tasks.completed").inc()
        obs.merge_remote(remote.snapshot())
        obs.merge_remote(remote.snapshot())
        snap = obs.registry.snapshot()
        assert snap["counters"]["slave.tasks.completed"] == 2.0

    def test_report_summary_task_count(self):
        obs = Observability()
        obs.tracer.span("a", 0)
        obs.tracer.span("a", 1)
        assert obs.report()["summary"]["task_count"] == 2
