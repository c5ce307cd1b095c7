"""Releasing a dataset: the one way it leaves a runtime.

``Job.remove_data`` drops a dataset from every table of the job and its
backend — the coordinator's dataset map, the scheduler (with the
failure strikes it keeps per dataset), the lineage map — and folds its
spans into one summary row, on every runtime.  A long iterative run
therefore holds only its live iterations, so its per-iteration cost
does not grow with the number of iterations before it.  Two rules keep
a release from stranding work: an unfinished reader of a released
dataset fails at once, naming it, and an operation submitted on a
released dataset raises in the caller.
Affinity survives a release: the next iteration shares the group.
"""

import os
import threading

import pytest

import repro.observability
from repro.comm import protocol
from repro.core.job import Job, JobError
from repro.core.options import default_options
from repro.runtime.failures import MAX_TASK_FAILURES
from repro.runtime.master import MasterBackend
from repro.runtime.mockparallel import MockParallelBackend
from repro.runtime.scheduler import ScheduledDataset, Scheduler
from repro.runtime.serial import SerialBackend

from tests.runtime.programs_mp import Tally
from tests.runtime.test_coordinator import FakeTransport
from tests.runtime.test_scheduler_scale import LineCounter

#: Seconds a release rule may take before the test calls it a hang.
DEADLINE = 10.0


def within(seconds, fn):
    """Run ``fn`` in a thread; fail if it has not returned in time."""
    outcome = {}

    def run():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # re-raised in the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no answer within {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


@pytest.fixture
def fake(tmp_path):
    opts = default_options(tmpdir=str(tmp_path / "run"))
    program = Tally(opts, [])
    transport = FakeTransport(program, opts)
    yield transport, Job(transport, program), program
    transport.close()


@pytest.fixture(params=["coordinator", "serial", "mockparallel"])
def any_runtime(request, tmp_path):
    """A job on the coordinator (in-memory transport, answered by
    ``drive``) or on a single-process runtime (``drive`` is a no-op:
    ``wait`` computes)."""
    opts = default_options(tmpdir=str(tmp_path / "run"))
    program = Tally(opts, [])
    if request.param == "coordinator":
        backend = FakeTransport(program, opts)
        drive = backend.finish_all
    else:
        if request.param == "serial":
            backend = SerialBackend(program, opts)
        else:
            backend = MockParallelBackend(
                program, tmpdir=str(tmp_path / "mockp"), opts=opts
            )

        def drive():
            pass

    yield backend, Job(backend, program), program, drive
    backend.close()


class TestLongRunsStayBounded:
    ITERATIONS = 3000
    TASKS = 4

    def test_tables_hold_only_live_datasets(self, fake):
        """A chain of reduce iterations, each released two rounds later
        as ``ApiaryPSO`` does, with one failed attempt per iteration:
        every table stays the size of the live window, while the
        report keeps one operations row per dataset ever run."""
        transport, job, program = fake
        scheduler = transport.scheduler
        tracer = transport.observability.tracer
        source = job.local_data(
            [(i, i) for i in range(self.TASKS)], splits=self.TASKS
        )
        last = job.map_data(
            source, program.map, splits=self.TASKS, affinity_group="iter"
        )
        transport.finish_all()
        consumed = [last]
        # The source and the two newest iterations are live.
        bound = 3 + 2
        for iteration in range(self.ITERATIONS):
            last = job.reduce_data(
                last, program.reduce, splits=self.TASKS, affinity_group="iter"
            )
            worker, descriptor = transport.sent.pop(0)
            transport.task_failed(
                worker, last.id, descriptor["task_index"], "Boom()"
            )
            transport.finish_all()
            assert last.complete
            consumed.append(last)
            while len(consumed) > 2:
                job.remove_data(consumed.pop(0))
            if iteration % 500 == 0 or iteration == self.ITERATIONS - 1:
                assert len(transport._datasets) <= bound
                assert len(scheduler._datasets) <= bound
                assert len(scheduler._complete_ids) <= bound
                strikes = [s.strikes for s in scheduler._datasets.values()]
                assert sum(map(len, strikes)) <= bound
                assert len(tracer._spans) <= bound
                assert len(tracer) <= self.TASKS * bound
                assert len(job._datasets) == 3
        operations = transport.metrics()["operations"]
        assert len(operations) == self.ITERATIONS + 1
        kinds = sorted(op["kind"] for op in operations)
        assert kinds == ["map"] + ["reduce"] * self.ITERATIONS
        assert {op["tasks"] for op in operations} == {self.TASKS}

    def test_status_cost_does_not_grow_with_released_datasets(self, fake):
        """``status()`` runs the same observability code after 100
        released iterations as after 8000: released datasets count
        through one folded total, not one row each."""
        transport, job, program = fake
        counter = LineCounter(
            os.path.dirname(repro.observability.__file__) + os.sep
        )
        source = job.local_data([(0, 0)], splits=1)
        last = job.map_data(source, program.map, splits=1)
        transport.finish_all()
        consumed = [last]
        lines = {}
        for iteration in range(1, 8001):
            last = job.reduce_data(last, program.reduce, splits=1)
            transport.finish_all()
            consumed.append(last)
            while len(consumed) > 2:
                job.remove_data(consumed.pop(0))
            if iteration in (100, 8000):
                lines[iteration] = counter.count(transport.status)
        assert lines[100] == lines[8000], lines
        assert transport.status()["tasks"]["done"] == 8001

    def test_late_failure_of_a_released_task_is_not_counted(self, fake):
        """A task in flight when its dataset is released and that then
        fails leaves no strike behind: nothing would forget it."""
        transport, job, program = fake
        source = job.local_data([(0, 1)], splits=1)
        mapped = job.map_data(source, program.map, splits=1)
        worker, descriptor = transport.sent.pop(0)
        job.remove_data(mapped)
        transport.task_failed(worker, mapped.id, descriptor["task_index"], "Boom()")
        assert not any(
            sched.strikes for sched in transport.scheduler._datasets.values()
        )
        assert worker not in transport._busy


class TestReleaseNeverStrandsAConsumer:
    def test_unfinished_reader_fails_naming_the_released_dataset(
        self, any_runtime
    ):
        backend, job, program, drive = any_runtime
        source = job.local_data([(i, i) for i in range(4)], splits=2)
        mapped = job.map_data(source, program.map, splits=2)
        reduced = job.reduce_data(mapped, program.reduce, splits=1)
        job.remove_data(source)
        drive()
        for dataset in (mapped, reduced):
            with pytest.raises(JobError, match=f"{source.id} was released"):
                within(DEADLINE, lambda: job.wait(dataset, timeout=DEADLINE))

    def test_finished_reader_is_untouched(self, any_runtime):
        backend, job, program, drive = any_runtime
        source = job.local_data([(i, i) for i in range(4)], splits=2)
        mapped = job.map_data(source, program.map, splits=2)
        drive()
        within(DEADLINE, lambda: job.wait(mapped, timeout=DEADLINE))
        job.remove_data(source)
        assert mapped.complete and mapped.error is None

    def test_operation_on_a_released_dataset_raises(self, any_runtime):
        backend, job, program, drive = any_runtime
        source = job.local_data([(i, i) for i in range(4)], splits=2)
        mapped = job.map_data(source, program.map, splits=2)
        drive()
        within(DEADLINE, lambda: job.wait(mapped, timeout=DEADLINE))
        job.remove_data(mapped)
        for submit in (
            lambda: job.reduce_data(mapped, program.reduce, splits=1),
            lambda: job.map_data(
                source, program.map, splits=1, blocking=[mapped]
            ),
        ):
            with pytest.raises(JobError, match=f"{mapped.id} was released"):
                within(DEADLINE, submit)
        # Nothing was queued: the next operation on live data runs.
        again = job.map_data(source, program.map, splits=1)
        drive()
        assert within(DEADLINE, lambda: job.wait(again, timeout=DEADLINE))

    def test_operation_on_a_failed_dataset_fails_at_once(self, fake):
        """The same rule for a dataset that struck out before its
        reader was submitted: the reader can never run, so it fails
        instead of waiting for its deadline."""
        transport, job, program = fake
        source = job.local_data([(0, 1)], splits=1)
        mapped = job.map_data(source, program.map, splits=1)
        for _ in range(MAX_TASK_FAILURES):
            worker, descriptor = transport.sent.pop(0)
            transport.task_failed(
                worker, mapped.id, descriptor["task_index"], "Boom()"
            )
        assert mapped.error
        reduced = job.reduce_data(mapped, program.reduce, splits=1)
        with pytest.raises(JobError, match=f"{mapped.id} failed"):
            within(DEADLINE, lambda: job.wait(reduced, timeout=DEADLINE))

    def test_lost_output_of_a_released_input_fails_its_readers(
        self, tmp_path, monkeypatch
    ):
        """Lineage recovery cannot re-run a task whose input was
        released: the dataset fails, and so does its unfinished reader,
        instead of waiting for an input that never comes back."""
        opts = default_options(tmpdir=str(tmp_path / "run"), data_plane="http")
        program = Tally(opts, [])
        backend = MasterBackend(program, opts)
        try:
            monkeypatch.setattr(backend, "_dispatch", lambda: None)
            job = Job(backend, program)
            producer = backend.slave_signin(protocol.PROTOCOL_VERSION, "127.0.0.1:9")
            other = backend.slave_signin(protocol.PROTOCOL_VERSION, "127.0.0.1:9")
            source = job.local_data([(0, 1)], splits=1)
            mapped = job.map_data(source, program.map, splits=1)
            with backend._lock:
                task = backend.scheduler.next_task(producer)
            backend.task_done(
                producer, task[0], task[1], [(0, "http://x/0", True)]
            )
            reduced = job.reduce_data(mapped, program.reduce, splits=1)
            with backend._lock:
                assert backend.scheduler.next_task(other) is not None
            job.remove_data(source)
            backend.lose_slave(producer, "killed")
            for dataset, cause in (
                (mapped, f"{source.id} was released"),
                (reduced, f"{mapped.id} failed"),
            ):
                with pytest.raises(JobError, match=cause):
                    within(
                        DEADLINE, lambda: job.wait(dataset, timeout=DEADLINE)
                    )
        finally:
            backend.close()


class TestAffinitySurvivesRelease:
    TASKS = 4

    def test_next_iteration_runs_where_the_last_one_did(self, fake):
        """KMeans's order: both datasets of iteration k are released
        before iteration k+1 is submitted, and every task of k+1 still
        goes to the worker that ran the same task index in k."""
        transport, job, program = fake

        def iteration():
            source = job.local_data(
                [(i, i) for i in range(self.TASKS)], splits=self.TASKS
            )
            assign = job.map_data(
                source, program.map, splits=self.TASKS,
                affinity_group="km_assign",
            )
            update = job.reduce_data(
                assign, program.reduce, splits=self.TASKS,
                affinity_group="km_update",
            )
            ran = {}
            while transport.sent:
                worker, descriptor = transport.sent.pop(0)
                key = (descriptor["dataset_id"], descriptor["task_index"])
                ran[key] = worker
                transport.finish(worker, descriptor)
            assert update.complete
            job.remove_data(assign)
            job.remove_data(update)
            return {
                (group, index): ran[(dataset.id, index)]
                for group, dataset in (("assign", assign), ("update", update))
                for index in range(self.TASKS)
            }

        first = iteration()
        assert set(first.values()) == set(transport.workers)
        for _ in range(3):
            assert iteration() == first


class TestSchedulerForgetting:
    @staticmethod
    def run_dataset(scheduler, dataset_id, group, job=None):
        """Run a two-task dataset: task 0 on slave 1, task 1 on 2."""
        scheduler.add_dataset(
            ScheduledDataset(dataset_id, 2, group, "input", job_id=job)
        )
        for slave in (1, 2):
            task = scheduler.next_task(slave)
            assert task == (dataset_id, slave - 1)
            scheduler.task_done(slave, task)

    @pytest.fixture
    def scheduler(self):
        scheduler = Scheduler()
        scheduler.add_slave(1)
        scheduler.add_slave(2)
        scheduler.mark_input_complete("input")
        return scheduler

    def test_releasing_a_dataset_keeps_its_groups_affinity(self, scheduler):
        self.run_dataset(scheduler, "iter_1", "iter")
        scheduler.forget_dataset("iter_1")
        scheduler.forget_dataset("input")
        assert scheduler._datasets == {}
        assert scheduler._complete_ids == set()
        assert scheduler.affinity_slave("iter", 0) == 1
        assert scheduler.affinity_slave("iter", 1) == 2

    def test_releasing_a_job_drops_its_affinity_by_prefix(self, scheduler):
        self.run_dataset(scheduler, "job-a.r_1", "job-a.iter", job="job-a")
        self.run_dataset(scheduler, "job-ab.r_1", "job-ab.iter", job="job-ab")
        self.run_dataset(scheduler, "r_1", "iter")
        scheduler.forget_job("job-a")
        assert scheduler.affinity_slave("job-a.iter", 0) is None
        assert scheduler.affinity_slave("job-ab.iter", 0) == 1
        assert scheduler.affinity_slave("iter", 1) == 2
        assert "job-a" not in scheduler.job_dispatches
        assert scheduler.job_dispatches["job-ab"] == 2


class TestSingleProcessRuntimesFold:
    @pytest.mark.parametrize("runtime", [SerialBackend, MockParallelBackend])
    def test_release_folds_spans_into_the_operations_row(
        self, runtime, tmp_path
    ):
        """Serial and mock-parallel release the way the coordinator
        does: live spans plus one folded row per released dataset."""
        opts = default_options(tmpdir=str(tmp_path / "run"))
        program = Tally(opts, [])
        backend = runtime(program, opts=opts)
        try:
            job = Job(backend, program)
            source = job.local_data([(i, i) for i in range(4)], splits=2)
            mapped = job.map_data(source, program.map, splits=2)
            reduced = job.reduce_data(mapped, program.reduce, splits=1)
            job.wait(reduced)
            before = {
                op["dataset_id"]: op for op in backend.metrics()["operations"]
            }
            job.remove_data(mapped)
            tracer = backend.observability.tracer
            assert tracer.spans_for(mapped.id) == []
            report = backend.metrics()
            assert {s["dataset_id"] for s in report["spans"]} == {reduced.id}
            after = {op["dataset_id"]: op for op in report["operations"]}
            assert after == before
            assert after[mapped.id]["kind"] == "map"
            assert after[mapped.id]["tasks"] == mapped.ntasks
        finally:
            backend.close()
