"""The Coordinator control plane, driven through an in-memory transport.

No processes, no sockets: ``FakeTransport`` records the descriptors the
coordinator sends and the test plays the workers' part by calling
``task_done`` / ``task_failed`` — the same entry points the master's
RPC handlers and the pool's collector thread use.
"""

import pytest

from repro.core import dataset as ds
from repro.core.job import Job, JobError
from repro.core.options import default_options
from repro.runtime.coordinator import Coordinator
from repro.runtime.failures import MAX_TASK_FAILURES

from tests.runtime.programs_mp import Tally


class FakeTransport(Coordinator):
    role = "fake"

    def __init__(self, program, opts, workers=(1, 2)):
        super().__init__(program, opts)
        self.workers = list(workers)
        self.sent = []  # (worker_id, descriptor), in send order
        for worker_id in self.workers:
            self.scheduler.add_slave(worker_id)

    def _live_workers(self):
        return self.workers

    def _send(self, worker_id, descriptor):
        self.sent.append((worker_id, descriptor))

    def _shutdown_transport(self):
        pass

    def finish(self, worker_id, descriptor):
        """Report ``descriptor`` done with one (never read) bucket."""
        task_index = descriptor["task_index"]
        self.task_done(
            worker_id,
            descriptor["dataset_id"],
            task_index,
            [(task_index, f"file:/nowhere/{task_index}", True)],
            seconds=0.25,
        )

    def finish_all(self):
        """Answer every outstanding send (and what those unblock)."""
        while self.sent:
            self.finish(*self.sent.pop(0))


@pytest.fixture
def coord(tmp_path):
    opts = default_options(tmpdir=str(tmp_path / "run"))
    program = Tally(opts, [])
    transport = FakeTransport(program, opts)
    transport.observability.enable_events(unbounded=True)
    yield transport, Job(transport, program), program
    transport.close()


def event_names(transport):
    return [e["name"] for e in transport.observability.events.snapshot()]


def test_submit_dispatch_done_completes_dataset(coord):
    transport, job, program = coord
    source = job.local_data([(i, i) for i in range(4)], splits=2)
    mapped = job.map_data(source, program.map, splits=1)
    # One task per idle worker, sent on submit.
    assert sorted(w for w, _ in transport.sent) == [1, 2]
    descriptor = transport.sent[0][1]
    assert descriptor["dataset_id"] == mapped.id
    assert descriptor["input_urls"][0].startswith("file:")
    assert job.progress(mapped) == 0.0
    transport.finish(*transport.sent.pop(0))
    assert job.progress(mapped) == 0.5 and not mapped.complete
    transport.finish(*transport.sent.pop(0))
    assert mapped.complete
    assert job.wait(mapped, timeout=1) == [mapped]
    assert len(mapped.existing_buckets()) == 2
    stats = transport.task_stats(mapped.id)
    assert stats["count"] == 2 and stats["total"] == pytest.approx(0.5)
    counters = transport.metrics()["metrics"]["counters"]
    assert counters["tasks.dispatched"] == 2
    assert counters["tasks.completed"] == 2
    names = event_names(transport)
    assert names.count("task.committed") == 2
    assert "dataset.complete" in names


@pytest.mark.parametrize("event_log", (False, True))
def test_task_events_are_derived_only_with_an_event_log(
    tmp_path, monkeypatch, event_log
):
    """The worker's span is absorbed either way; turning it into
    task.phase / task.committed events is work done only when there is
    an event log to put them in."""
    from repro.runtime import coordinator

    calls = []
    real = coordinator.emit_task_events
    monkeypatch.setattr(
        coordinator,
        "emit_task_events",
        lambda *args, **who: (calls.append(who), real(*args, **who)),
    )
    opts = default_options(tmpdir=str(tmp_path / "run"))
    program = Tally(opts, [])
    transport = FakeTransport(program, opts)
    try:
        if event_log:
            transport.observability.enable_events(unbounded=True)
        job = Job(transport, program)
        source = job.local_data([(i, i) for i in range(4)], splits=2)
        mapped = job.map_data(source, program.map, splits=1)
        worker_id, descriptor = transport.sent.pop(0)
        transport.task_done(
            worker_id, mapped.id, descriptor["task_index"],
            [(0, "file:/nowhere", True)], seconds=0.25,
            metrics={"span": {"marks": [["fetch", 0.05], ["map", 0.2]]}},
        )
        (span,) = [
            s for s in transport.observability.tracer.spans_for(mapped.id)
            if s.seconds is not None
        ]
        assert span.durations["map"] == pytest.approx(0.15)
        assert calls == ([{"slave": worker_id}] if event_log else [])
        if event_log:
            phases = [
                e["fields"]["phase"]
                for e in transport.observability.events.snapshot()
                if e["name"] == "task.phase"
            ]
            assert phases == ["fetch", "map"]
    finally:
        transport.close()


def test_stale_duplicate_done_rejected(coord):
    transport, job, program = coord
    source = job.local_data([(0, 1)], splits=1)
    mapped = job.map_data(source, program.map, splits=1)
    worker_id, descriptor = transport.sent.pop(0)
    transport.finish(worker_id, descriptor)
    transport.finish(worker_id, descriptor)  # the duplicate
    other = 2 if worker_id == 1 else 1
    transport.finish(other, descriptor)  # a presumed-dead worker's copy
    assert len(mapped.existing_buckets()) == 1
    assert transport.task_stats(mapped.id)["count"] == 1
    counters = transport.metrics()["metrics"]["counters"]
    assert counters["tasks.completed"] == 1


def test_three_strikes_fail_dataset_and_dependents(coord):
    transport, job, program = coord
    source = job.local_data([(0, 1)], splits=1)
    mapped = job.map_data(source, program.map, splits=1)
    reduced = job.reduce_data(mapped, program.reduce, splits=1)
    final = job.reduce_data(reduced, program.reduce, splits=1)
    for strike in range(MAX_TASK_FAILURES):
        assert not mapped.error, f"failed after only {strike} strikes"
        worker_id, descriptor = transport.sent.pop(0)
        transport.task_failed(
            worker_id, mapped.id, descriptor["task_index"], "Boom({})"
        )
    assert "failed 3 times; last: Boom({})" in mapped.error
    assert reduced.error and final.error
    assert not transport.sent, "a struck-out task was dispatched again"
    # The last attempt is released, not left assigned, and the
    # cancelled dataset never takes it back into the queue.
    assert transport.scheduler._datasets[mapped.id].cancelled
    assert transport.scheduler.outstanding() == 0
    assert transport.status()["outstanding"] == 0
    with pytest.raises(JobError):
        job.wait(final, timeout=1)
    names = event_names(transport)
    assert names.count("task.failed") == 3
    assert names.count("task.requeued") == 2
    assert names.count("dataset.failed") == 1


def test_fetch_error_while_input_recomputes_is_a_free_retry(coord):
    transport, job, program = coord
    source = job.local_data([(0, 1)], splits=1)
    mapped = job.map_data(source, program.map, splits=1)
    reduced = job.reduce_data(mapped, program.reduce, splits=1)
    transport.finish_all()  # the map, then the reduce it unblocked
    # Lineage recovery revoked the map's output: the reduce re-runs
    # while its input is being recomputed.
    mapped.complete = reduced.complete = False
    with transport._lock:
        transport.scheduler.unmark_complete(mapped.id)
        transport.scheduler.reset_tasks(reduced.id, [0])
    for _ in range(3 * MAX_TASK_FAILURES):
        transport.task_failed(1, reduced.id, 0, "FetchError('gone')")
    assert reduced.error is None
    assert transport.scheduler.strikes((reduced.id, 0)) == 0
    # The same message against a healthy input does burn the budget.
    mapped.complete = True
    transport.task_failed(1, reduced.id, 0, "FetchError('gone')")
    assert transport.scheduler.strikes((reduced.id, 0)) == 1


def test_zero_task_dataset_completes_and_unblocks(coord):
    transport, job, program = coord
    empty = job._register(ds.LocalData([], splits=0))
    mapped = job.map_data(empty, program.map, splits=2)
    assert mapped.ntasks == 0 and mapped.complete
    assert not transport.sent
    assert job.wait(mapped, timeout=1) == [mapped]
    # Its consumer has real tasks (over empty split columns), and they
    # are dispatchable at once.
    reduced = job.reduce_data(mapped, program.reduce, splits=1)
    assert [d["input_urls"] for _, d in transport.sent] == [[], []]
    transport.finish_all()
    assert reduced.complete
    events = transport.observability.events.snapshot()
    assert any(
        e["name"] == "dataset.complete" and e["fields"].get("tasks") == 0
        for e in events
    )


def test_localdata_spills_once_at_submit_outside_the_lock(coord, monkeypatch):
    """A LocalData input's non-empty buckets are written once, when the
    first dataset reading it is submitted, never under the coordinator
    lock; an empty bucket is not written and is no task's input."""
    from repro.runtime import dataplane

    transport, job, program = coord
    spills = []
    spill_bucket = dataplane.spill_bucket

    def spy(dataset, bucket, tmpdir):
        spills.append((bucket.split, transport._lock._is_owned()))
        return spill_bucket(dataset, bucket, tmpdir)

    monkeypatch.setattr(dataplane, "spill_bucket", spy)
    source = job.local_data([(i, i) for i in range(3)], splits=4)
    first = job.map_data(source, program.map, splits=1)
    second = job.map_data(source, program.map, splits=1)
    inputs = {}
    while transport.sent:
        worker_id, descriptor = transport.sent.pop(0)
        inputs[descriptor["task_index"]] = descriptor["input_urls"]
        transport.finish(worker_id, descriptor)
    assert first.complete and second.complete
    assert spills == [(0, False), (1, False), (2, False)]
    assert [len(inputs[i]) for i in range(4)] == [1, 1, 1, 0]
