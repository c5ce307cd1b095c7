"""MasterBackend internals, tested in-process without real slaves.

(Descriptor building and everything else the master shares with the
multiprocess pool is covered for both in test_coordinator*.py.)
"""

import os

import pytest

from repro.core.dataset import LocalData
from repro.core.job import Job
from repro.core.options import default_options
from repro.core.program import MapReduce
from repro.runtime.master import MasterBackend


class Prog(MapReduce):
    def map(self, key, value):
        yield (key, value)

    def reduce(self, key, values):
        yield sum(values)


@pytest.fixture
def backend(tmp_path, monkeypatch):
    """A MasterBackend with auto-dispatch disabled: these tests drive
    the scheduler by hand, standing in for slave RPC traffic."""
    opts = default_options(tmpdir=str(tmp_path / "shared"))
    program = Prog(opts, [])
    backend = MasterBackend(program, opts)
    monkeypatch.setattr(backend, "_dispatch", lambda: None)
    yield backend, Job(backend, program)
    backend.close()


class TestSubmission:
    def test_submit_registers_with_scheduler(self, backend):
        b, job = backend
        source = job.local_data([(0, 1), (1, 2)], splits=2)
        mapped = job.map_data(source, b.program.map, splits=1)
        assert b.scheduler.is_complete(source.id)
        assert b.scheduler.outstanding() == 2  # two pending map tasks

    def test_default_splits_tracks_slaves(self, backend):
        b, _ = backend
        assert b.default_splits == 1  # no slaves yet
        b.slave_signin(1, "127.0.0.1:1")
        b.slave_signin(1, "127.0.0.1:2")
        assert b.default_splits == 2

    def test_reduce_tasks_option_overrides(self, tmp_path):
        opts = default_options(tmpdir=str(tmp_path), reduce_tasks=7)
        program = Prog(opts, [])
        b = MasterBackend(program, opts)
        try:
            assert b.default_splits == 7
        finally:
            b.close()


class TestCompletionBookkeeping:
    def _setup_job(self, backend):
        b, job = backend
        source = job.local_data([(0, 1), (1, 2)], splits=2)
        mapped = job.map_data(source, b.program.map, splits=1)
        slave = b.slave_signin(1, "127.0.0.1:9")
        return b, job, mapped, slave

    def test_task_done_installs_buckets_and_stats(self, backend):
        b, job, mapped, slave = self._setup_job(backend)
        with b._lock:
            t0 = b.scheduler.next_task(slave)
            t1 = b.scheduler.next_task(slave)
        b.task_done(slave, mapped.id, t0[1], [(0, "file:/a")], seconds=0.5)
        assert not mapped.complete
        b.task_done(slave, mapped.id, t1[1], [(0, "file:/b")], seconds=0.25)
        assert mapped.complete
        stats = b.task_stats(mapped.id)
        assert stats["count"] == 2
        assert stats["total"] == pytest.approx(0.75)
        assert stats["max"] == pytest.approx(0.5)

    def test_stale_done_ignored(self, backend):
        b, job, mapped, slave = self._setup_job(backend)
        with b._lock:
            task = b.scheduler.next_task(slave)
        b.task_done(slave, mapped.id, task[1], [(0, "file:/a")])
        before = len(mapped.existing_buckets())
        # Duplicate report: rejected, no duplicate bucket.
        b.task_done(slave, mapped.id, task[1], [(0, "file:/dup")])
        assert len(mapped.existing_buckets()) == before

    def test_unknown_dataset_done_is_noop(self, backend):
        b, job, mapped, slave = self._setup_job(backend)
        b.task_done(slave, "ghost", 0, [])


class TestFailurePropagation:
    def test_failure_cascades_to_dependents(self, backend):
        b, job = backend
        source = job.local_data([(0, 1)], splits=1)
        mapped = job.map_data(source, b.program.map, splits=1)
        reduced = job.reduce_data(mapped, b.program.reduce, splits=1)
        final = job.reduce_data(reduced, b.program.reduce, splits=1)
        slave = b.slave_signin(1, "127.0.0.1:9")
        for _ in range(3):  # burn the whole failure budget
            with b._lock:
                task = b.scheduler.next_task(slave)
            if task is None:
                break
            b.task_failed(slave, task[0], task[1], "boom")
        assert mapped.error
        assert reduced.error and "failed" in reduced.error
        assert final.error

    def test_fetch_error_during_recovery_is_free(self, backend):
        b, job = backend
        source = job.local_data([(0, 1)], splits=1)
        mapped = job.map_data(source, b.program.map, splits=1)
        reduced = job.reduce_data(mapped, b.program.reduce, splits=1)
        slave = b.slave_signin(1, "127.0.0.1:9")
        # Pretend the map finished, then got revoked (input incomplete).
        with b._lock:
            task = b.scheduler.next_task(slave)
        b.task_done(slave, mapped.id, task[1], [(0, "http://dead:1/x")])
        mapped.complete = False
        with b._lock:
            b.scheduler.unmark_complete(mapped.id)
        # Fetch failures on the reduce must not count strikes.
        for _ in range(10):
            b.task_failed(slave, reduced.id, 0, "FetchError('gone')")
        assert reduced.error is None


class TestLifecycle:
    def test_runfile_written_and_removed(self, tmp_path):
        runfile = str(tmp_path / "master.run")
        opts = default_options(tmpdir=str(tmp_path / "t"), runfile=runfile)
        program = Prog(opts, [])
        b = MasterBackend(program, opts)
        host, port = open(runfile).read().strip().rsplit(":", 1)
        assert int(port) == b.rpc.port
        b.close()
        assert not os.path.exists(runfile)

    def test_unwritable_runfile_leaves_nothing_behind(
        self, tmp_path, launch_leftovers
    ):
        """A start that fails after its listeners are up closes them and
        removes the run directory it created."""
        opts = default_options(
            runfile=str(tmp_path / "missing" / "master.run"),
            data_plane="http",
        )
        with pytest.raises(FileNotFoundError):
            MasterBackend(Prog(opts, []), opts)
        assert launch_leftovers() == []

    def test_taken_port_leaves_nothing_behind(self, launch_leftovers):
        import socket

        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            opts = default_options(port=taken.getsockname()[1])
            with pytest.raises(OSError):
                MasterBackend(Prog(opts, []), opts)
        assert launch_leftovers() == []

    def test_close_idempotent(self, tmp_path):
        opts = default_options(tmpdir=str(tmp_path))
        b = MasterBackend(Prog(opts, []), opts)
        b.close()
        b.close()

    def test_lose_unknown_slave_is_noop(self, backend):
        b, _ = backend
        b.lose_slave(999, "never existed")


class TestStatus:
    def test_status_snapshot(self, backend):
        b, job = backend
        source = job.local_data([(0, 1)], splits=1)
        mapped = job.map_data(source, b.program.map, splits=1)
        b.slave_signin(1, "127.0.0.1:9")
        status = b.status()
        assert status["outstanding"] == 1
        assert len(status["slaves"]) == 1
        ids = {d["id"] for d in status["datasets"]}
        assert mapped.id in ids
        assert status["data_plane"] == "file"

    def test_status_over_rpc(self, backend):
        from repro.comm.rpc import rpc_client

        b, _ = backend
        status = rpc_client(b.rpc.address).status()
        assert status["address"] == b.rpc.address


class TestTimeoutOption:
    def test_wait_honors_mrs_timeout(self, tmp_path):
        """--mrs-timeout caps a wait that would otherwise hang (no
        slaves will ever finish this task)."""
        import time as _time

        opts = default_options(tmpdir=str(tmp_path), timeout=0.3)
        program = Prog(opts, [])
        b = MasterBackend(program, opts)
        try:
            job = Job(b, program)
            source = job.local_data([(0, 1)], splits=1)
            mapped = job.map_data(source, program.map, splits=1)
            started = _time.monotonic()
            done = job.wait(mapped)
            elapsed = _time.monotonic() - started
            assert done == []
            assert elapsed < 5.0
        finally:
            b.close()

    def test_explicit_timeout_overrides_default(self, tmp_path):
        import time as _time

        opts = default_options(tmpdir=str(tmp_path), timeout=60.0)
        program = Prog(opts, [])
        b = MasterBackend(program, opts)
        try:
            job = Job(b, program)
            source = job.local_data([(0, 1)], splits=1)
            mapped = job.map_data(source, program.map, splits=1)
            started = _time.monotonic()
            job.wait(mapped, timeout=0.2)
            assert _time.monotonic() - started < 5.0
        finally:
            b.close()
