"""Behaviour every master must share, whoever starts its slaves.

Every test runs against a bare cluster master and against
``--mrs multiprocess``, the master with one forked slave.  Auto-dispatch
is disabled: the tests assign tasks by hand and report completions and
failures through the coordinator's own entry points, standing in for
slave RPC traffic; on the forked plane a failed attempt is the slave
dying mid-task.
"""

import gc
import os
import time
import weakref

import pytest

from repro.comm import protocol
from repro.core.job import Job
from repro.core.options import default_options
from repro.runtime.failures import MAX_TASK_FAILURES
from repro.runtime.master import MasterBackend
from repro.runtime.multiprocess import MultiprocessBackend

from tests.runtime.programs_mp import Tally
from tests.runtime.test_multiprocess import START_METHODS, start_multiprocess

#: A master whose slaves sign in by hand, and one with a forked slave.
PLANES = ["master", "multiprocess"]


def make_backend(plane, tmpdir):
    opts = default_options(tmpdir=tmpdir, procs=1)
    program = Tally(opts, [])
    if plane == "master":
        backend = MasterBackend(program, opts)
    else:
        backend = MultiprocessBackend(program, opts, [])
    return backend, program


class Harness:
    def __init__(self, plane, backend, program):
        self.plane = plane
        self.backend = backend
        self.program = program
        self.job = Job(backend, program)
        if self.plane == "master":
            self.worker = backend.slave_signin(protocol.PROTOCOL_VERSION, "127.0.0.1:9")
        else:
            (record,) = backend.alive_slaves()
            self.worker = record.id

    def assign(self):
        """What ``_dispatch`` does under the lock, minus the send."""
        backend = self.backend
        with backend._lock:
            task = backend.scheduler.next_task(self.worker)
            assert task is not None
            descriptor = backend._build_descriptor(task)
            backend._busy[self.worker] = task
        return task, descriptor

    def finish(self, task, url="file:/nowhere"):
        self.backend.task_done(
            self.worker, task[0], task[1], [(task[1], url, True)]
        )

    def fail(self, task):
        """One failed attempt: a ``failed`` report from a slave signed
        in by hand, the forked slave killed mid-task on the other
        plane."""
        if self.plane == "master":
            self.backend.task_failed(self.worker, task[0], task[1], "boom")
            return
        (record,) = self.backend.alive_slaves()
        (process,) = [
            p for p in self.backend.group.processes if p.pid == record.pid
        ]
        process.kill()
        # Returns once the group has lost the slave and forked another.
        process.wait(timeout=10)
        deadline = time.monotonic() + 10
        while not self.backend.alive_slaves():
            assert time.monotonic() < deadline, "no replacement signed in"
            time.sleep(0.005)
        (replacement,) = self.backend.alive_slaves()
        self.worker = replacement.id


@pytest.fixture(params=PLANES)
def harness(request, tmp_path, monkeypatch):
    backend, program = make_backend(request.param, str(tmp_path / "run"))
    monkeypatch.setattr(backend, "_dispatch", lambda: None)
    backend.observability.enable_events(unbounded=True)
    yield Harness(request.param, backend, program)
    backend.close()


def event_names(backend):
    return [e["name"] for e in backend.observability.events.snapshot()]


class TestDescriptors:
    def test_localdata_spilled_for_workers(self, harness):
        job, program = harness.job, harness.program
        source = job.local_data([(0, "x")], splits=1)
        mapped = job.map_data(source, program.map, splits=1)
        _, descriptor = harness.assign()
        # The LocalData bucket must now be backed by a real file.
        url = descriptor["input_urls"][0]
        assert url.startswith("file:")
        assert os.path.exists(url[len("file:"):])
        assert descriptor["dataset_id"] == mapped.id
        assert descriptor["outdir"] == os.path.join(
            harness.backend.tmpdir, mapped.id
        )
        assert descriptor["format_ext"] == "mrsb"
        assert descriptor["program_spec"] is None

    def test_user_output_descriptor(self, harness, tmp_path):
        job, program = harness.job, harness.program
        source = job.local_data([(0, "x")], splits=1)
        job.map_data(
            source, program.map, splits=1,
            outdir=str(tmp_path / "user"), format="txt",
        )
        _, descriptor = harness.assign()
        assert descriptor["user_output"] is True
        assert descriptor["format_ext"] == "txt"
        assert descriptor["outdir"].endswith("user")


class TestSpillHygiene:
    def spill(self, harness, dataset):
        """A straggler's output appearing in the run directory."""
        rundir = os.path.join(harness.backend.tmpdir, dataset.id)
        os.makedirs(rundir, exist_ok=True)
        path = os.path.join(rundir, f"{dataset.id}_0_0.mrsb")
        with open(path, "wb") as f:
            f.write(b"late")
        return rundir, "file:" + path

    @pytest.mark.parametrize("fate", ("released", "errored"))
    def test_late_completion_leaves_no_spill_dir(
        self, harness, fate, assert_no_tmpdir_leak
    ):
        backend, job, program = harness.backend, harness.job, harness.program
        source = job.local_data([(0, 1)], splits=1)
        mapped = job.map_data(source, program.map, splits=1)
        task, _ = harness.assign()
        if fate == "released":
            backend.remove_data(mapped.id)
        else:
            mapped.error = "canceled"
        rundir, url = self.spill(harness, mapped)
        assert_no_tmpdir_leak.append(rundir)
        harness.finish(task, url)
        assert not os.path.exists(rundir)
        assert not mapped.existing_buckets()
        assert harness.worker not in backend._busy

    def test_remove_data_cancels_before_deleting(self, harness):
        backend, job, program = harness.backend, harness.job, harness.program
        source = job.local_data([(i, i) for i in range(4)], splits=2)
        mapped = job.map_data(source, program.map, splits=1)
        harness.assign()  # spills the input, one task in flight
        assert backend.scheduler.outstanding() == 2
        rundir = os.path.join(backend.tmpdir, source.id)
        assert os.path.isdir(rundir)
        job.remove_data(mapped)
        job.remove_data(source)
        # The queued task is gone and the in-flight one abandoned: the
        # scheduler forgets the dataset, and the worker stays busy
        # until it reports.
        assert not backend.scheduler.has_pending()
        assert backend.scheduler.outstanding() == 0
        assert harness.worker in backend._busy
        assert not os.path.exists(rundir)

    def test_failed_task_of_released_dataset_is_not_requeued(self, harness):
        """A release is permanent: a task in flight when its dataset is
        released and that then fails (or its slave dies) is not queued
        again to run against a deleted run directory."""
        backend, job, program = harness.backend, harness.job, harness.program
        source = job.local_data([(0, 1)], splits=1)
        mapped = job.map_data(source, program.map, splits=1)
        task, _ = harness.assign()
        job.remove_data(mapped)
        harness.fail(task)
        assert not backend.scheduler.has_pending()
        assert backend.scheduler.outstanding() == 0
        assert "task.requeued" not in event_names(backend)


class TestStrikeOut:
    def test_three_failed_attempts_fail_dataset_and_dependents(self, harness):
        backend, job, program = harness.backend, harness.job, harness.program
        source = job.local_data([(i, i) for i in range(4)], splits=2)
        mapped = job.map_data(source, program.map, splits=2)
        reduced = job.reduce_data(mapped, program.reduce, splits=2)
        again = job.map_data(reduced, program.map, splits=2)
        for _ in range(2):
            task, _ = harness.assign()
            harness.finish(task)
        assert mapped.complete
        # The reduce's 2 tasks; its consumer waits for all of it.
        assert backend.scheduler.outstanding() == 2
        for attempt in range(MAX_TASK_FAILURES):
            assert not reduced.error, f"failed after {attempt} attempts"
            task, _ = harness.assign()
            assert task == (reduced.id, 0)
            harness.fail(task)
        assert reduced.error and "3 times" in reduced.error
        assert again.error
        assert not backend.scheduler.has_pending()
        names = event_names(backend)
        assert names.count("dataset.failed") == 1
        assert names.count("task.requeued") == MAX_TASK_FAILURES - 1


class TestReleasedJobsLeaveNoSpans:
    """A long-lived coordinator must not keep every span it ever made:
    releasing a job folds its datasets' spans into one fixed-size row
    each, and the per-job views keep working from the rows."""

    TASKS = 3

    @pytest.fixture
    def master(self, tmp_path, monkeypatch):
        backend, program = make_backend("master", str(tmp_path / "run"))
        monkeypatch.setattr(backend, "_dispatch", lambda: None)
        backend.scheduler.add_slave(1)
        yield backend, program
        backend.close()

    def run_job(self, backend, program, namespace, release=True):
        """One small job, start to finish: every task dispatched to
        worker 1 and reported done with a worker span attached."""
        backend.register_job(namespace)
        job = Job(backend, program, namespace=namespace)
        source = job.local_data(
            [(i, i) for i in range(self.TASKS)], splits=self.TASKS
        )
        mapped = job.map_data(source, program.map, splits=1)
        metrics = protocol.make_task_metrics(
            span={"marks": [["fetch", 1e-4], ["map", 3e-4],
                            ["serialize", 4e-4], ["transfer", 5e-4]]}
        )
        for _ in range(self.TASKS):
            with backend._lock:
                task = backend.scheduler.next_task(1)
                backend._busy[1] = task
                backend.observability.tracer.span(*task).mark("started")
            backend.task_done(
                1, task[0], task[1], [(0, "file:/nowhere", True)],
                seconds=5e-4, metrics=metrics,
            )
        assert mapped.complete
        if release:
            backend.release_namespace(namespace)
        return mapped

    @pytest.mark.parametrize("n_jobs", (2, 9))
    def test_tracer_size_is_independent_of_jobs_run(self, master, n_jobs):
        backend, program = master
        tracer = backend.observability.tracer
        datasets = [
            self.run_job(backend, program, f"job-{n}") for n in range(n_jobs)
        ]
        assert len(tracer) == 0
        assert all(tracer.spans_for(d.id) == [] for d in datasets)
        # One more, still live: its spans are all the tracer holds.
        live = self.run_job(backend, program, "job-live", release=False)
        assert len(tracer) == self.TASKS

        # The views still answer for released jobs, from the rows.
        status = backend.job_status("job-0")
        assert status["tasks"] == {
            "total": self.TASKS, "done": self.TASKS, "running": 0,
        }
        assert status["phases"]["map"] == pytest.approx(self.TASKS * 2e-4)
        assert set(status["phases"]) == {
            "fetch", "map", "serialize", "transfer",
        }
        report = backend.metrics()
        # One row per dataset ever run, released or not.
        assert sorted(op["dataset_id"] for op in report["operations"]) == (
            sorted(d.id for d in datasets + [live])
        )
        assert all(op["tasks"] == self.TASKS for op in report["operations"])
        assert report["summary"]["task_count"] == (n_jobs + 1) * self.TASKS
        assert len(report["spans"]) == self.TASKS
        assert backend.task_stats(datasets[0].id)["count"] == 0

    def test_job_status_cost_does_not_grow_with_jobs_released(self, master):
        backend, program = master

        def cost(namespace):
            best = float("inf")
            for _ in range(20):
                began = time.perf_counter()
                backend.job_status(namespace)
                best = min(best, time.perf_counter() - began)
            return best

        for n in range(50):
            self.run_job(backend, program, f"job-{n}")
        after_50 = cost("job-7")
        for n in range(50, 2050):
            self.run_job(backend, program, f"job-{n}")
        after_2050 = cost("job-7")
        assert backend.job_status("job-7")["tasks"]["done"] == self.TASKS
        assert after_2050 <= 2 * after_50, (after_50, after_2050)


def assert_status_shape(status):
    """The one ``status()`` shape, whichever transport answers."""
    assert isinstance(status["outstanding"], int)
    assert status["datasets"], "no dataset rows"
    for row in status["datasets"]:
        assert set(row) == {"id", "complete", "error", "progress"}
        assert 0.0 <= row["progress"] <= 1.0
    workers = status["workers"]
    assert 0 <= workers["busy"] <= workers["alive"]
    assert 0 <= workers["ready"] <= workers["alive"]


@pytest.mark.parametrize("plane", PLANES)
def test_status_has_one_shape_on_every_transport(plane, tmp_path):
    """A real cluster (master + two exec'd slave processes) and a
    master with two forked slaves answer ``status()`` in the same shape
    mid-run and after the run, and ``/metrics`` renders one progress
    sample per dataset row."""
    from repro.observability.telemetry import render_prometheus
    from repro.runtime.cluster import LocalCluster
    from tests.observability.test_telemetry import assert_prometheus_text

    tmpdir = str(tmp_path / "run")
    if plane == "master":
        cluster = LocalCluster(Tally, [], n_slaves=2, tmpdir=tmpdir).start()
        backend, program, stop = cluster.backend, cluster.program, cluster.stop
    else:
        opts = default_options(tmpdir=tmpdir, procs=2)
        program = Tally(opts, [])
        backend = MultiprocessBackend(program, opts, [])
        stop = backend.close
    try:
        job = Job(backend, program)
        source = job.local_data([(i, i) for i in range(8)], splits=4)
        mapped = job.map_data(source, program.map, splits=2)
        reduced = job.reduce_data(mapped, program.reduce, splits=2)
        assert_status_shape(backend.status())
        assert job.wait(reduced, timeout=60) == [reduced]

        status = backend.status()
        assert_status_shape(status)
        assert status["outstanding"] == 0
        assert status["workers"]["alive"] == status["workers"]["ready"] == 2
        rows = {row["id"]: row for row in status["datasets"]}
        assert {source.id, mapped.id, reduced.id} <= set(rows)
        assert all(row["progress"] == 1.0 for row in rows.values())

        body = render_prometheus(backend)
        assert_prometheus_text(body)
        progress = [
            line for line in body.splitlines()
            if line.startswith("mrs_dataset_progress{")
        ]
        assert len(progress) == len(rows)
        assert f'mrs_dataset_progress{{dataset="{reduced.id}"}} 1' in progress
    finally:
        stop()


@pytest.mark.parametrize(
    "plane", ["master"] + [f"multiprocess-{m}" for m in START_METHODS]
)
def test_telemetry_is_a_view_over_real_workers(plane, tmp_path):
    """After a WordCount on real workers (two exec'd slaves; two forked
    slaves; one forked and one exec'd slave), ``telemetry()`` has one
    latest health entry per worker, and the map dataset's skew row is
    exactly what its bucket files hold (the file plane: every file on
    disk)."""
    from repro.apps.wordcount import WordCount
    from repro.io import urls as url_io
    from repro.runtime.cluster import LocalCluster

    inputs = tmp_path / "in"
    inputs.mkdir()
    for n in range(4):
        (inputs / f"{n}.txt").write_text(f"the quick fox {n}\nthe lazy dog\n")
    args = [str(inputs), str(tmp_path / "out")]
    tmpdir = str(tmp_path / "run")
    if plane == "master":
        cluster = LocalCluster(WordCount, args, n_slaves=2, tmpdir=tmpdir).start()
        backend, program, stop = cluster.backend, cluster.program, cluster.stop
    else:
        start_method = plane.partition("-")[2]
        program, backend = start_multiprocess(
            WordCount, args, start_method, 2, tmpdir=tmpdir
        )
        stop = backend.close
    try:
        job = Job(backend, program)
        # Four map tasks: the first dispatch hands one to each worker.
        assert program.run(job) == 0
        telemetry = backend.telemetry()
        mapped = job.get_dataset(program.output_data.input_id)
        urls = [bucket.url for bucket in mapped.existing_buckets()]
        disk_bytes = sum(os.path.getsize(url[len("file:"):]) for url in urls)
        disk_records = sum(len(url_io.fetch_pairs(url)) for url in urls)
    finally:
        stop()
    workers = sorted(set(telemetry["latest"]) - {telemetry["role"]})
    assert len(workers) == 2, telemetry["latest"]
    for source in workers:
        assert source.startswith("slave-")
        sample = telemetry["latest"][source]
        assert sample["rss_bytes"] > 0
        assert "tasks_completed" in sample  # the worker's own count
    row = telemetry["skew"][mapped.id]
    assert (row["bytes_total"], row["records_total"]) == (disk_bytes, disk_records)
    assert disk_records > 0


@pytest.mark.parametrize("plane", PLANES)
def test_closed_backend_frees_datasets_without_gc(plane, tmp_path):
    """No reference cycle may pin a finished job: once the backend is
    closed and the caller lets go, the datasets (and the buffers in
    their buckets, and the task spans) must die by reference counting
    alone."""
    gc.collect()
    gc.disable()
    try:
        backend, program = make_backend(plane, str(tmp_path / "run"))
        job = Job(backend, program)
        source = job.local_data([(i, i) for i in range(6)], splits=2)
        mapped = job.map_data(source, program.map, splits=2)
        threads = [backend._watchdog]
        if plane != "master":
            job.wait(mapped, timeout=60)
            assert mapped.data()
            threads += [p._waiter for p in backend.group.processes]
        span = backend.observability.tracer.spans_for(mapped.id)[0]
        refs = [weakref.ref(obj) for obj in (source, mapped, backend, span)]
        backend.close()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        del backend, program, job, source, mapped, span, thread, threads
        assert [ref() for ref in refs] == [None, None, None, None]
    finally:
        gc.enable()
