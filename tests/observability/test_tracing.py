"""Task span lifecycle and the tracer registry."""

import pytest

from repro.observability.tracing import TaskSpan, Tracer


class TestTaskSpan:
    def test_lifecycle_events_recorded_in_order(self):
        span = TaskSpan("ds1", 0)
        for event in ("queued", "started", "map", "serialize", "committed"):
            span.mark(event)
        assert [name for name, _ in span.events] == [
            "queued", "started", "map", "serialize", "committed",
        ]
        assert span.last_time("map") is not None
        assert span.last_time("reduce") is None

    def test_mark_attributes_elapsed_to_event(self):
        span = TaskSpan("ds1", 0)
        span.mark("queued", timestamp=10.0)
        span.mark("started", timestamp=10.5)
        span.mark("map", timestamp=12.5)
        assert span.durations["started"] == 0.5
        assert span.durations["map"] == 2.0
        assert "queued" not in span.durations  # first event has no prior
        assert span.to_dict()["total_seconds"] == 2.5

    def test_repeated_event_accumulates_duration(self):
        span = TaskSpan("ds1", 0)
        span.mark("queued", timestamp=0.0)
        span.mark("map", timestamp=1.0)
        span.mark("map", timestamp=1.5)
        assert span.durations["map"] == 1.5

    def test_clock_skew_clamped_to_zero(self):
        span = TaskSpan("ds1", 0)
        span.mark("queued", timestamp=5.0)
        span.mark("started", timestamp=4.0)  # goes backwards
        assert span.durations["started"] == 0.0

    def test_add_duration_accumulates_without_a_mark(self):
        span = TaskSpan("ds1", 3)
        span.add_duration("shuffle", 0.25)
        span.add_duration("shuffle", 0.25)
        assert span.durations == {"shuffle": 0.5}
        assert span.events == []

    def test_last_time_is_the_latest_dispatch(self):
        span = TaskSpan("ds1", 0)
        span.mark("queued", timestamp=0.0)
        span.mark("started", timestamp=1.0)
        span.mark("started", timestamp=4.0)  # requeued, redispatched
        assert span.last_time("started") == 4.0

    def test_absorb_reanchors_at_last_started(self):
        """Raw stamps never cross processes: the executor's marks are
        offsets, replayed from this span's own dispatch timestamp."""
        remote = TaskSpan("ds1", 0)
        remote.mark("started", timestamp=900.0)
        remote.mark("fetch", timestamp=900.1)
        remote.mark("map", timestamp=900.6)
        local = TaskSpan("ds1", 0)
        local.mark("queued", timestamp=0.0)
        local.mark("started", timestamp=1.0)
        local.mark("started", timestamp=4.0)
        local.absorb(remote.to_wire())
        local.mark("committed", timestamp=5.0)
        assert local.events[-3:] == [
            ("fetch", pytest.approx(4.1)),
            ("map", pytest.approx(4.6)),
            ("committed", 5.0),
        ]
        assert local.durations["fetch"] == pytest.approx(0.1)
        assert local.durations["map"] == pytest.approx(0.5)
        # The return trip, not the whole round trip: durations tile the
        # span instead of counting the execution twice.
        assert local.durations["committed"] == pytest.approx(0.4)

    def test_to_dict_reports_committed_seconds(self):
        span = TaskSpan("ds1", 0)
        assert "seconds" not in span.to_dict()
        span.seconds = 0.75
        assert span.to_dict()["seconds"] == 0.75

    def test_to_dict_uses_offsets_from_first_event(self):
        span = TaskSpan("ds1", 2)
        span.mark("queued", timestamp=100.0)
        span.mark("started", timestamp=100.25)
        d = span.to_dict()
        assert d["dataset_id"] == "ds1"
        assert d["task_index"] == 2
        assert d["events"] == [
            {"event": "queued", "offset": 0.0},
            {"event": "started", "offset": 0.25},
        ]
        assert d["total_seconds"] == 0.25

    def test_empty_span_to_dict(self):
        d = TaskSpan("ds1", 0).to_dict()
        assert d["events"] == []
        assert d["total_seconds"] == 0.0


class TestTracer:
    def test_span_get_or_create(self):
        tracer = Tracer()
        a = tracer.span("ds1", 0)
        assert tracer.span("ds1", 0) is a
        assert tracer.span("ds1", 1) is not a
        assert len(tracer) == 2

    def test_snapshot_sorted_by_dataset_then_index(self):
        tracer = Tracer()
        tracer.span("b", 1)
        tracer.span("a", 1)
        tracer.span("a", 0)
        keys = [(s["dataset_id"], s["task_index"]) for s in tracer.snapshot()]
        assert keys == [("a", 0), ("a", 1), ("b", 1)]

    def test_spans_for_filters_by_dataset(self):
        tracer = Tracer()
        tracer.span("a", 0)
        tracer.span("b", 0)
        assert [s.dataset_id for s in tracer.spans_for("a")] == ["a"]
        assert tracer.spans_for("nope") == []

    def test_snapshot_is_plain_data(self):
        import json

        tracer = Tracer()
        tracer.span("a", 0).mark("queued", timestamp=1.0)
        snap = tracer.snapshot()
        assert len(snap) == 1
        json.dumps(snap)  # must not raise


def committed_span(tracer, dataset_id, index, compute=0.5):
    span = tracer.span(dataset_id, index)
    span.mark("queued", timestamp=0.0)
    span.mark("started", timestamp=0.1)
    span.mark("map", timestamp=0.1 + compute)
    span.mark("committed", timestamp=1.0)
    return span


class TestFold:
    def test_rows_summarize_live_spans(self):
        tracer = Tracer()
        committed_span(tracer, "a", 0)
        tracer.span("a", 1).mark("queued", timestamp=0.0)
        running = tracer.span("a", 2)
        running.mark("queued", timestamp=0.0)
        running.mark("started", timestamp=0.5)
        (row,) = tracer.rows().values()
        assert (row["tasks"], row["done"], row["running"]) == (3, 1, 1)
        assert row["wall_seconds"] == pytest.approx(1.5)
        assert row["durations"]["map"] == pytest.approx(0.5)

    def test_fold_drops_spans_and_keeps_the_row(self):
        tracer = Tracer()
        committed_span(tracer, "a", 0)
        committed_span(tracer, "a", 1)
        committed_span(tracer, "b", 0)
        before = tracer.rows()
        tracer.fold("a")
        assert len(tracer) == 1
        assert tracer.spans_for("a") == []
        assert [s["dataset_id"] for s in tracer.snapshot()] == ["b"]
        assert tracer.rows() == before

    def test_fold_unknown_dataset_is_a_noop(self):
        tracer = Tracer()
        tracer.fold("nope")
        assert tracer.rows() == {}

    def test_rows_by_namespace_touch_only_that_job(self):
        tracer = Tracer()
        committed_span(tracer, "job-1.map_1", 0)
        committed_span(tracer, "job-1.reduce_2", 0)
        committed_span(tracer, "job-2.map_3", 0)
        committed_span(tracer, "map_4", 0)
        tracer.fold("job-1.map_1")
        assert sorted(tracer.rows("job-1")) == ["job-1.map_1", "job-1.reduce_2"]
        assert sorted(tracer.rows("")) == ["map_4"]
        assert tracer.rows("job-9") == {}
        assert len(tracer.rows()) == 4
