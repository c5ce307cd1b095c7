"""Timeline conversion: trace_event structure Perfetto accepts."""

import json

import pytest

from repro.observability.events import EventLog
from repro.observability.timeline import (
    trace_from_events,
    trace_from_jsonl,
    write_trace,
)


def assert_perfetto_structure(trace):
    """Structural checks for the trace_event JSON Array Format:
    required keys per phase type, numeric timestamps, and strict B/E
    pairing per (pid, tid) lane."""
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    stacks = {}
    for entry in trace["traceEvents"]:
        ph = entry["ph"]
        assert "pid" in entry and "tid" in entry
        if ph == "M":
            assert entry["name"] in ("process_name", "thread_name")
            assert "name" in entry["args"]
            continue
        ts = entry["ts"]
        assert isinstance(ts, float) and ts >= 0.0
        lane = (entry["pid"], entry["tid"])
        if ph == "B":
            assert entry["name"]
            stacks.setdefault(lane, []).append(entry)
        elif ph == "E":
            assert stacks.get(lane), f"E without open B on lane {lane}"
            begin = stacks[lane].pop()
            assert ts >= begin["ts"]
        elif ph == "i":
            assert entry["s"] == "g"
            assert entry["name"]
        else:
            pytest.fail(f"unexpected phase type {ph!r}")
    unclosed = {lane: stack for lane, stack in stacks.items() if stack}
    assert not unclosed, f"unterminated B spans: {unclosed}"


def committed_task(log, dataset_id, task_index, start, worker=None):
    fields = {"dataset_id": dataset_id, "task_index": task_index}
    if worker is not None:
        fields["worker"] = worker
    log.emit("task.started", t=start, **fields)
    log.emit("task.phase", t=start + 0.5, phase="map", seconds=0.5, **fields)
    log.emit("task.phase", t=start + 0.6, phase="serialize", seconds=0.1,
             **fields)
    log.emit("task.committed", t=start + 0.7, **fields)


class TestTraceFromEvents:
    def test_empty_stream(self):
        trace = trace_from_events([])
        assert trace == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_committed_task_renders_nested_spans(self):
        log = EventLog("serial", ring_size=None)
        committed_task(log, "ds1", 0, start=100.0)
        trace = trace_from_events(log.snapshot())
        assert_perfetto_structure(trace)
        names = [e.get("name") for e in trace["traceEvents"]
                 if e["ph"] == "B"]
        assert names == ["ds1[0]", "map", "serialize"]

    def test_timestamps_rebased_to_stream_start_in_micros(self):
        log = EventLog("serial", ring_size=None)
        log.emit("dataset.submitted", t=50.0, dataset_id="ds1")
        committed_task(log, "ds1", 0, start=51.0)
        trace = trace_from_events(log.snapshot())
        task_begin = next(e for e in trace["traceEvents"]
                          if e["ph"] == "B" and e["name"] == "ds1[0]")
        assert task_begin["ts"] == pytest.approx(1.0 * 1e6)

    def test_uncommitted_task_renders_as_instants_only(self):
        """A task that died keeps the B/E invariant: no unterminated
        span, just its failure instant."""
        log = EventLog("serial", ring_size=None)
        fields = {"dataset_id": "ds1", "task_index": 0}
        log.emit("task.started", t=1.0, **fields)
        log.emit("task.failed", t=2.0, error="boom", **fields)
        trace = trace_from_events(log.snapshot())
        assert_perfetto_structure(trace)
        phases = [e["ph"] for e in trace["traceEvents"]]
        assert "B" not in phases
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["task.failed"]
        assert instants[0]["args"]["error"] == "boom"

    def test_requeued_task_keeps_last_start(self):
        log = EventLog("serial", ring_size=None)
        fields = {"dataset_id": "ds1", "task_index": 0}
        log.emit("task.started", t=1.0, **fields)
        log.emit("task.requeued", t=2.0, **fields)
        committed_task(log, "ds1", 0, start=3.0)
        trace = trace_from_events(log.snapshot())
        assert_perfetto_structure(trace)
        task_begin = next(e for e in trace["traceEvents"]
                          if e["ph"] == "B" and e["name"] == "ds1[0]")
        assert task_begin["ts"] == pytest.approx(2.0 * 1e6)

    def test_worker_field_assigns_lane(self):
        log = EventLog("multiprocess", ring_size=None)
        committed_task(log, "ds1", 0, start=1.0, worker=0)
        committed_task(log, "ds1", 1, start=1.0, worker=3)
        trace = trace_from_events(log.snapshot())
        assert_perfetto_structure(trace)
        tids = {e["tid"] for e in trace["traceEvents"] if e["ph"] == "B"}
        assert tids == {1, 4}  # worker id + 1
        thread_names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"worker-0", "worker-3"} <= thread_names

    def test_slave_field_assigns_lane(self):
        log = EventLog("master", ring_size=None)
        fields = {"dataset_id": "ds1", "task_index": 0, "slave": 2}
        log.emit("task.started", t=1.0, **fields)
        log.emit("task.committed", t=2.0, **fields)
        trace = trace_from_events(log.snapshot())
        assert_perfetto_structure(trace)
        task_begin = next(e for e in trace["traceEvents"] if e["ph"] == "B")
        assert task_begin["tid"] == 3
        thread_names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "slave-2" in thread_names

    def test_process_metadata_labels_role(self):
        log = EventLog("master", ring_size=None)
        committed_task(log, "ds1", 0, start=1.0)
        trace = trace_from_events(log.snapshot())
        process_names = [
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert process_names == ["master"]

    def test_instant_markers_for_lifecycle_noise(self):
        log = EventLog("master", ring_size=None)
        log.emit("slave.signin", t=0.0, slave=0)
        log.emit("slave.lost", t=1.0, slave=0, reason="ping")
        log.emit("spill.bucket", t=2.0, dataset_id="ds1")
        trace = trace_from_events(log.snapshot())
        assert_perfetto_structure(trace)
        assert [e["name"] for e in trace["traceEvents"] if e["ph"] == "i"] == [
            "slave.signin", "slave.lost", "spill.bucket",
        ]

    def test_ignores_malformed_entries(self):
        trace = trace_from_events([{"name": "no-timestamp"}, "not-a-dict"])
        assert trace["traceEvents"] == []


class TestTraceFromJsonl:
    def test_round_trip_through_file(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog("serial", path=path, ring_size=None)
        committed_task(log, "ds1", 0, start=10.0)
        in_memory = trace_from_events(log.snapshot())
        log.close()
        assert trace_from_jsonl(path) == in_memory


class TestWriteTrace:
    def test_writes_parseable_json(self, tmp_path):
        log = EventLog("serial", ring_size=None)
        committed_task(log, "ds1", 0, start=1.0)
        trace = trace_from_events(log.snapshot())
        path = str(tmp_path / "deep" / "trace.json")
        assert write_trace(trace, path) == path
        with open(path) as f:
            assert json.load(f) == trace

    def test_atomic_no_tmp_left_behind(self, tmp_path):
        write_trace({"traceEvents": []}, str(tmp_path / "t.json"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]
