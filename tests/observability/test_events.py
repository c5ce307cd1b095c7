"""EventLog: ring buffer, crash-safe JSONL, and span-derived task events."""

import json
import os
import threading

import pytest

from repro.observability import Observability
from repro.observability.events import (
    DEFAULT_RING_SIZE,
    EventLog,
    emit_task_events,
    read_jsonl,
)
from repro.observability.tracing import TaskSpan


class TestEmit:
    def test_envelope_fields(self):
        log = EventLog("master")
        event = log.emit("task.started", dataset_id="ds1", task_index=3)
        assert event["seq"] == 1
        assert event["name"] == "task.started"
        assert event["pid"] == os.getpid()
        assert event["role"] == "master"
        assert event["fields"] == {"dataset_id": "ds1", "task_index": 3}
        assert isinstance(event["t"], float)

    def test_no_fields_key_when_empty(self):
        assert "fields" not in EventLog("serial").emit("heartbeat")

    def test_seq_strictly_increasing(self):
        log = EventLog("serial")
        seqs = [log.emit("e")["seq"] for _ in range(10)]
        assert seqs == list(range(1, 11))
        assert log.last_seq == 10

    def test_explicit_timestamp_override(self):
        log = EventLog("serial")
        assert log.emit("task.phase", t=12.5)["t"] == 12.5

    def test_timestamps_monotonic(self):
        log = EventLog("serial")
        stamps = [log.emit("e")["t"] for _ in range(5)]
        assert stamps == sorted(stamps)


class TestRing:
    def test_bounded_ring_drops_oldest(self):
        log = EventLog("serial", ring_size=3)
        for i in range(5):
            log.emit("e", i=i)
        snapshot = log.snapshot()
        assert [e["seq"] for e in snapshot] == [3, 4, 5]
        # Sequence numbers keep counting past evicted entries.
        assert log.last_seq == 5

    def test_unbounded_ring_keeps_everything(self):
        log = EventLog("serial", ring_size=None)
        for _ in range(2 * DEFAULT_RING_SIZE):
            log.emit("e")
        assert len(log) == 2 * DEFAULT_RING_SIZE

    def test_snapshot_since_seq(self):
        log = EventLog("serial")
        for _ in range(6):
            log.emit("e")
        assert [e["seq"] for e in log.snapshot(since_seq=4)] == [5, 6]
        assert log.snapshot(since_seq=99) == []


class TestJsonlSink:
    def test_round_trip_exactly_what_was_emitted(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog("master", path=path, ring_size=None)
        emitted = [
            log.emit("dataset.submitted", dataset_id="ds1"),
            log.emit("task.started", dataset_id="ds1", task_index=0),
            log.emit("task.committed", dataset_id="ds1", task_index=0),
        ]
        log.close()
        assert read_jsonl(path) == emitted

    def test_each_event_is_one_complete_line(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog("serial", path=path)
        log.emit("a")
        log.emit("b")
        log.close()
        with open(path) as f:
            lines = f.read().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)  # every line parses on its own

    def test_flushed_without_close(self, tmp_path):
        """A crash (no close) loses nothing already emitted."""
        path = str(tmp_path / "events.jsonl")
        log = EventLog("serial", path=path)
        log.emit("survives")
        # Deliberately no close(): the line must already be on disk.
        assert [e["name"] for e in read_jsonl(path)] == ["survives"]
        log.close()

    def test_truncated_final_line_dropped(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog("serial", path=path)
        log.emit("kept", i=1)
        log.emit("kept", i=2)
        log.close()
        with open(path, "a") as f:
            f.write('{"seq": 3, "t": 1.0, "name": "torn')  # crash mid-write
        events = read_jsonl(path)
        assert [e["fields"]["i"] for e in events] == [1, 2]

    def test_malformed_interior_line_raises(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w") as f:
            f.write('{"seq": 1, "name": "ok", "t": 0.0}\n')
            f.write("not json\n")
            f.write('{"seq": 2, "name": "ok", "t": 1.0}\n')
        with pytest.raises(ValueError, match="malformed event line"):
            read_jsonl(path)

    def test_empty_file_reads_empty(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        open(path, "w").close()
        assert read_jsonl(path) == []

    def test_creates_parent_directory(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "events.jsonl")
        log = EventLog("serial", path=path)
        log.emit("e")
        log.close()
        assert os.path.exists(path)

    def test_two_processes_share_one_file(self, tmp_path):
        """Appended interleaved writes from two logs (as slaves sharing
        a tmpdir do): per-pid sequence order is still reconstructable."""
        path = str(tmp_path / "events.jsonl")
        a = EventLog("slave", path=path, pid=111)
        b = EventLog("slave", path=path, pid=222)
        a.emit("e")
        b.emit("e")
        a.emit("e")
        b.emit("e")
        a.close()
        b.close()
        events = read_jsonl(path)
        assert len(events) == 4
        for pid in (111, 222):
            seqs = [e["seq"] for e in events if e["pid"] == pid]
            assert seqs == sorted(seqs) == [1, 2]

    def test_close_is_idempotent(self, tmp_path):
        log = EventLog("serial", path=str(tmp_path / "e.jsonl"))
        log.close()
        log.close()


class TestDisabledPath:
    """With no consumer, the hot path is one attribute check."""

    def test_events_none_by_default(self):
        assert Observability().events is None

    def test_configure_without_flags_stays_disabled(self):
        class Opts:
            event_log = None

        obs = Observability()
        obs.configure_from_opts(Opts())
        assert obs.events is None
        obs.configure_from_opts(None)
        assert obs.events is None

    def test_configure_enables_on_either_flag(self, tmp_path):
        class Opts:
            event_log = str(tmp_path / "e.jsonl")

        obs = Observability()
        obs.configure_from_opts(Opts())
        assert obs.events is not None
        obs.events.close()

    def test_event_log_keeps_a_bounded_ring(self, tmp_path):
        """The framework never asks for an unbounded ring: a run's
        whole stream belongs in the JSONL file."""
        from repro.observability.events import DEFAULT_RING_SIZE

        class Opts:
            event_log = str(tmp_path / "e.jsonl")

        obs = Observability()
        obs.configure_from_opts(Opts())
        assert obs.events._ring.maxlen == DEFAULT_RING_SIZE
        obs.events.close()

    def test_enable_events_idempotent(self):
        obs = Observability()
        assert obs.enable_events() is obs.enable_events()


class TestConcurrentEmission:
    def test_parallel_emitters_never_lose_or_duplicate_seq(self):
        log = EventLog("serial", ring_size=None)
        n_threads, per_thread = 8, 250

        def hammer():
            for _ in range(per_thread):
                log.emit("e")

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = sorted(e["seq"] for e in log.snapshot())
        assert seqs == list(range(1, n_threads * per_thread + 1))

    def test_parallel_emitters_with_jsonl_sink(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog("serial", path=path, ring_size=None)

        def hammer():
            for _ in range(100):
                log.emit("e")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log.close()
        events = read_jsonl(path)
        assert sorted(e["seq"] for e in events) == list(range(1, 401))


def executor_span():
    """What a slave/worker records for one execution."""
    span = TaskSpan("ds1", 0)
    span.mark("started", timestamp=10.0)
    span.mark("fetch", timestamp=10.2)
    span.mark("map", timestamp=10.7)
    span.mark("serialize", timestamp=10.8)
    span.mark("transfer", timestamp=10.9)
    return span


def coordinator_span(wire, started=500.0, committed=501.0):
    """The coordinator's span for the same task: dispatched at
    ``started`` on its own clock, then the executor's record arrives."""
    span = TaskSpan("ds1", 0)
    span.mark("queued", timestamp=started - 1.0)
    span.mark("started", timestamp=started)
    span.absorb(wire)
    span.seconds = 0.9
    span.mark("committed", timestamp=committed)
    return span


def emitted(span, log=None, **who):
    if log is None:
        log = EventLog("master")
    emit_task_events(log, span, **who)
    return log.snapshot()


def phases_of(span):
    return [
        (e["fields"]["phase"], e["t"], e["fields"]["seconds"])
        for e in emitted(span)
        if e["name"] == "task.phase"
    ]


class TestPhaseBoundaries:
    def test_phases_between_started_and_committed(self):
        phases = phases_of(coordinator_span(executor_span().to_wire()))
        assert [name for name, _, _ in phases] == [
            "fetch", "map", "serialize", "transfer",
        ]
        assert [seconds for _, _, seconds in phases] == pytest.approx(
            [0.2, 0.5, 0.1, 0.1]
        )

    def test_queued_to_started_is_wait_not_a_phase(self):
        """Serial spans have no fetch mark: the gap ending at started
        is scheduler wait, not work."""
        span = TaskSpan("ds1", 0)
        span.mark("queued", timestamp=10.0)
        span.mark("started", timestamp=10.2)
        span.mark("map", timestamp=10.7)
        span.mark("serialize", timestamp=10.8)
        span.mark("committed", timestamp=11.0)
        assert phases_of(span) == [
            ("map", 10.7, pytest.approx(0.5)),
            ("serialize", 10.8, pytest.approx(0.1)),
        ]

    def test_only_the_last_dispatch_has_phases(self):
        """A requeued task is started twice; the first dispatch ended
        in a failure, so its marks (none arrive) are not phases and the
        second dispatch's phases are anchored at the second start."""
        span = TaskSpan("ds1", 0)
        span.mark("queued", timestamp=0.0)
        span.mark("started", timestamp=1.0)
        span.mark("started", timestamp=5.0)
        span.absorb(executor_span().to_wire())
        span.mark("committed", timestamp=6.0)
        phases = phases_of(span)
        assert [name for name, _, _ in phases] == [
            "fetch", "map", "serialize", "transfer",
        ]
        assert phases[0][1:] == (pytest.approx(5.2), pytest.approx(0.2))

    def test_span_without_phase_marks_yields_only_committed(self):
        span = TaskSpan("ds1", 0)
        span.mark("queued", timestamp=0.0)
        span.mark("committed", timestamp=2.0)
        assert [e["name"] for e in emitted(span)] == ["task.committed"]


class TestSpanToEvents:
    """The slave->master path end to end: the executor's marks travel
    as offsets, the coordinator's span re-anchors them at its own
    dispatch timestamp, and the events are derived from that span."""

    def test_wire_record_is_offsets_from_task_start(self):
        wire = executor_span().to_wire()
        assert set(wire) == {"marks"}
        assert [name for name, _ in wire["marks"]] == [
            "fetch", "map", "serialize", "transfer",
        ]
        assert [offset for _, offset in wire["marks"]] == pytest.approx(
            [0.2, 0.7, 0.8, 0.9]
        )

    def test_phase_events_reanchored_on_local_clock(self):
        span = coordinator_span(executor_span().to_wire())
        events = emitted(span, slave=1)
        phases = [e for e in events if e["name"] == "task.phase"]
        assert [e["t"] for e in phases] == pytest.approx(
            [500.2, 500.7, 500.8, 500.9]
        )
        assert [e["fields"]["phase"] for e in phases] == [
            "fetch", "map", "serialize", "transfer",
        ]
        assert [e["fields"]["seconds"] for e in phases] == pytest.approx(
            [0.2, 0.5, 0.1, 0.1]
        )
        assert [e["seq"] for e in events] == [1, 2, 3, 4, 5]

    def test_committed_closes_the_task_with_its_seconds(self):
        span = coordinator_span(executor_span().to_wire())
        last = emitted(span, slave=1)[-1]
        assert last["name"] == "task.committed"
        assert last["t"] == 501.0
        assert last["fields"]["seconds"] == 0.9

    def test_task_and_executor_fields_attached(self):
        """Derived events carry the coordinator's pid and the executor
        id, so they share a trace lane with its task.started marker."""
        log = EventLog("master", pid=777)
        span = coordinator_span(executor_span().to_wire())
        for event in emitted(span, log, slave=1):
            assert event["pid"] == 777
            assert event["fields"]["dataset_id"] == "ds1"
            assert event["fields"]["task_index"] == 0
            assert event["fields"]["slave"] == 1

    def test_garbage_marks_skipped_not_raised(self):
        wire = {
            "marks": [
                ["map"],  # no offset
                ["map", "not-a-number"],
                7,
                ["map", 0.2],
            ],
            "fetches": [{"offset": "bad", "seconds": 1}, 7, {"seconds": 1}],
            "profile": 3,
        }
        span = coordinator_span(wire)
        assert [name for name, _ in span.events] == [
            "queued", "started", "map", "committed",
        ]
        assert span.fetch_spans == [] and span.profile_path is None
        events = emitted(span)
        assert [e["name"] for e in events] == ["task.phase", "task.committed"]

    @pytest.mark.parametrize("wire", [None, 7, "x", [], {"marks": 5}])
    def test_garbage_record_is_ignored(self, wire):
        span = coordinator_span(wire)
        assert [e["name"] for e in emitted(span)] == ["task.committed"]

    def test_fetch_spans_and_profile_become_events(self):
        remote = executor_span()
        remote.add_fetch_span(10.3, 10.6, thread=1, source=4, url="http://x")
        remote.profile_path = "/tmp/p.pstats"
        span = coordinator_span(remote.to_wire())
        events = emitted(span, worker=2)
        assert [e["name"] for e in events] == [
            "task.phase", "task.phase", "task.phase", "task.phase",
            "fetch.span", "task.profiled", "task.committed",
        ]
        fetch = events[4]
        assert fetch["t"] == pytest.approx(500.6)
        assert fetch["fields"]["seconds"] == pytest.approx(0.3)
        assert fetch["fields"]["thread"] == 1
        assert fetch["fields"]["source"] == 4
        profiled = events[5]
        assert profiled["t"] == pytest.approx(500.9)
        assert profiled["fields"]["path"] == "/tmp/p.pstats"
        assert profiled["fields"]["seconds"] == 0.9

    def test_derived_events_reach_the_jsonl_sink(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog("master", path=path)
        emitted(coordinator_span(executor_span().to_wire()), log)
        log.close()
        assert [e["t"] for e in read_jsonl(path)] == pytest.approx(
            [500.2, 500.7, 500.8, 500.9, 501.0]
        )


class TestEventLogOffCostsNothing:
    """With no event log the span->events function is never reached."""

    @pytest.mark.parametrize("event_log", [False, True])
    def test_serial_completion(self, event_log, tmp_path, monkeypatch):
        from repro.core.main import run_program
        from repro.runtime import serial
        from tests.observability.test_integration import WordCount

        calls = []
        real = serial.emit_task_events
        monkeypatch.setattr(
            serial,
            "emit_task_events",
            lambda *a, **kw: (calls.append(a), real(*a, **kw)),
        )
        extra = {"event_log": str(tmp_path / "e.jsonl")} if event_log else {}
        run_program(WordCount, [], impl="serial", **extra)
        assert len(calls) == (WordCount.N_TASKS if event_log else 0)
