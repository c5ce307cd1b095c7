"""``--mrs multiprocess``: a master with forked local slaves.

Covers the runtime's acceptance bar: byte-identical output vs the
serial implementation, slave-crash recovery, exactly-once metrics
accounting, and fork hygiene (no leftovers after a stop, a prompt stop,
a respawn forked while the master is serving).
"""

import gc
import glob
import logging
import os
import signal
import tempfile
import threading
import time

import pytest

from repro.comm import transfer
from repro.core.job import Job
from repro.core.main import run_program
from repro.core.options import default_options, parse_options
from repro.runtime.cluster import program_spec
from repro.runtime.failures import MAX_TASK_FAILURES
from repro.runtime.multiprocess import MultiprocessBackend

from tests.runtime.programs_mp import CrashOnce, Stall, Tally


def make_backend(program_cls, opts_overrides=None, args=()):
    opts = default_options(**(opts_overrides or {}))
    program = program_cls(opts, list(args))
    backend = MultiprocessBackend(program, opts, list(args))
    return Job(backend, program), program, backend


#: How an ``--mrs multiprocess`` master's slaves start: all forked from
#: it (``SlaveGroup.fork``), or one of them exec'd into the same group
#: (``SlaveGroup.spawn``, as ``LocalCluster`` starts its slaves), which
#: imports the program by name and shares the forked slaves' file plane.
START_METHODS = ["fork", "spawn"]


def start_multiprocess(program_cls, args, start_method, procs, **overrides):
    """``(program, backend)``: an ``--mrs multiprocess`` master over the
    program arguments ``args`` with ``procs`` slaves signed in, started
    by ``start_method``; ``overrides`` set master options."""
    spawned = int(start_method == "spawn")
    opts, positional = parse_options(
        program_cls, ["--mrs", "multiprocess", *args]
    )
    for key, value in dict(overrides, procs=procs - spawned).items():
        setattr(opts, key, value)
    program = program_cls(opts, positional)
    backend = MultiprocessBackend(program, opts, positional)
    try:
        if spawned:
            spec = program_spec(program_cls)
            assert backend.group.spawn(spawned, spec, args) == procs
    except BaseException:
        backend.close()
        raise
    return program, backend


def run_multiprocess(program_cls, args, start_method, procs, **overrides):
    """Run the program to completion as :func:`start_multiprocess`
    launches it; returns the program instance."""
    program, backend = start_multiprocess(
        program_cls, args, start_method, procs, **overrides
    )
    try:
        assert program.run(Job(backend, program)) in (None, 0)
        return program
    finally:
        backend.close()


def output_by_key(directory):
    """Map visible output files keyed by their ``source_split.ext``
    suffix (the dataset-id prefix differs between runs)."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.startswith("."):
            continue
        stem, ext = os.path.splitext(name)
        key = ("_".join(stem.split("_")[-2:]), ext)
        with open(os.path.join(directory, name), "rb") as f:
            out[key] = f.read()
    return out


class TestEquivalence:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_wordcount_byte_identical_to_serial(self, tmp_path, start_method):
        from repro.apps.wordcount import WordCount

        input_file = tmp_path / "in.txt"
        input_file.write_text(
            "the quick brown fox jumps over the lazy dog\n"
            "the dog sleeps while the fox runs\n" * 10
        )
        serial_out = tmp_path / "serial_out"
        mp_out = tmp_path / "mp_out"
        run_program(
            WordCount,
            [str(input_file), str(serial_out)],
            impl="serial",
            reduce_tasks=2,
        )
        run_multiprocess(
            WordCount,
            [str(input_file), str(mp_out)],
            start_method,
            procs=4,
            reduce_tasks=2,
        )
        serial_files = output_by_key(serial_out)
        mp_files = output_by_key(mp_out)
        assert serial_files, "serial run produced no output"
        assert mp_files.keys() == serial_files.keys()
        for key, payload in serial_files.items():
            assert mp_files[key] == payload, f"output {key} differs"

    def test_chain_results(self, tmp_path):
        job, p, backend = make_backend(
            Tally, {"procs": 2, "tmpdir": str(tmp_path / "mp")}
        )
        try:
            src = job.local_data([(i, i) for i in range(9)], splits=3)
            out = job.reduce_data(job.map_data(src, p.map), p.reduce, splits=2)
            job.wait(out, timeout=60)
            assert sorted(out.data()) == [(0, 3), (1, 3), (2, 3)]
        finally:
            backend.close()

    def test_default_splits_is_pool_size(self):
        job, p, backend = make_backend(Tally, {"procs": 3})
        try:
            assert backend.default_splits == 3
        finally:
            backend.close()


class TestFaultTolerance:
    def test_sigkilled_worker_task_is_requeued(self, tmp_path):
        """A slave killed mid-task is reaped, its task retried, a
        replacement forked, and the job still completes."""
        marker = tmp_path / "crashed_once"
        job, p, backend = make_backend(
            CrashOnce,
            {"procs": 2, "tmpdir": str(tmp_path / "mp")},
            args=[str(marker)],
        )
        try:
            src = job.local_data([(i, 1) for i in range(6)], splits=3)
            mapped = job.map_data(src, p.map, splits=2)
            reduced = job.reduce_data(mapped, p.reduce, splits=1)
            job.wait(reduced, timeout=60)
            assert marker.exists(), "the crash path never ran"
            assert reduced.complete
            assert sorted(reduced.data()) == [(0, 3), (1, 3)]
            counters = backend.metrics()["metrics"]["counters"]
            assert counters["slaves.lost"] >= 1
        finally:
            backend.close()

    def test_poison_task_fails_dataset_not_job(self, tmp_path):
        """A task that kills every slave that touches it exhausts the
        failure budget and errors the dataset instead of hanging."""
        from repro.core.job import JobError

        job, p, backend = make_backend(
            CrashOnce,
            {"procs": 1, "tmpdir": str(tmp_path / "mp")},
            # "always": the map crashes on every attempt at key 0.
            args=[str(tmp_path / "marker"), "always"],
        )
        try:
            src = job.local_data([(0, 1)], splits=1)
            mapped = job.map_data(src, p.map, splits=1)
            with pytest.raises(JobError):
                job.wait(mapped, timeout=120)
            assert mapped.error
            counters = backend.metrics()["metrics"]["counters"]
            assert counters["slaves.lost"] >= MAX_TASK_FAILURES
            assert "killed its slave 3 times" in mapped.error
        finally:
            backend.close()


class TestMetrics:
    def test_pool_metrics_count_each_task_exactly_once(self, tmp_path):
        job, p, backend = make_backend(
            Tally, {"procs": 2, "tmpdir": str(tmp_path / "mp")}
        )
        try:
            src = job.local_data([(i, i) for i in range(8)], splits=4)
            mapped = job.map_data(src, p.map, splits=2)
            reduced = job.reduce_data(mapped, p.reduce, splits=2)
            job.wait(reduced, timeout=60)
            report = backend.metrics()
            total_tasks = 4 + 2  # map tasks + reduce tasks
            counters = report["metrics"]["counters"]
            assert counters["tasks.completed"] == total_tasks
            assert counters["slave.tasks.completed"] == total_tasks
            # The per-slave breakdown partitions the same total.
            per_worker = [
                source["counters"].get("slave.tasks.completed", 0)
                for source in report["sources"].values()
            ]
            assert sum(per_worker) == total_tasks
            assert report["role"] == "multiprocess"
            # Piggybacked phase durations made it into the phase timer.
            assert report["phases"].get("map", 0) >= 0
        finally:
            backend.close()


def children():
    """Pids whose parent is this process, zombies included."""
    me = str(os.getpid())
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # exited between the listing and the read
        if stat.rsplit(")", 1)[1].split()[1] == me:
            found.append(int(name))
    return sorted(found)


def wait_until(predicate, seconds, what):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, f"no {what} within {seconds} s"
        time.sleep(0.002)


class TestForkHygiene:
    def test_start_stop_cycles_leak_nothing(self):
        """50 launches, each running a small job, leave no thread, fd,
        child process or run directory behind, and each stop is
        prompt: the slaves exit on the master's quit."""
        def fds():
            gc.collect()
            return len(os.listdir("/proc/self/fd"))

        pattern = os.path.join(tempfile.gettempdir(), "mrs_*")
        before = (fds(), threading.enumerate(), children(), glob.glob(pattern))
        stops = []
        for _ in range(50):
            job, p, backend = make_backend(Tally, {"procs": 2})
            try:
                src = job.local_data([(i, i) for i in range(4)], splits=2)
                out = job.map_data(src, p.map, splits=2)
                job.wait(out, timeout=60)
                assert out.complete
            finally:
                began = time.perf_counter()
                backend.close()
                stops.append(time.perf_counter() - began)
        transfer.get_pool().close()
        assert [t for t in threading.enumerate() if t not in before[1]] == []
        assert set(children()) <= set(before[2])
        assert set(glob.glob(pattern)) <= set(before[3])
        assert fds() <= before[0]
        assert max(stops) < 0.1, sorted(stops)[-5:]

    def test_forked_slave_holds_no_master_listener(self):
        """A child closes its copy of the master's listening socket: a
        port the master closes must stop accepting, not linger in a
        slave."""
        job, p, backend = make_backend(Tally, {"procs": 1})
        try:
            (record,) = backend.alive_slaves()
            listener = "socket:[%d]" % os.fstat(backend.rpc.fileno()).st_ino
            fds = f"/proc/{record.pid}/fd"
            held = {os.readlink(os.path.join(fds, fd)) for fd in os.listdir(fds)}
            assert listener not in held
        finally:
            backend.close()

    def test_sigkilled_slave_task_is_requeued_within_a_second(self, tmp_path):
        job, p, backend = make_backend(Stall, {"procs": 2}, args=[str(tmp_path)])
        events = backend.observability.enable_events(unbounded=True)
        try:
            src = job.local_data([(0, 1), (1, 1)], splits=1)
            out = job.map_data(src, p.map, splits=2)
            running = tmp_path / "running"
            wait_until(running.exists, 10, "running task")
            pid = int(running.read_text())
            running.unlink()
            os.kill(pid, signal.SIGKILL)
            killed = time.perf_counter()
            wait_until(
                lambda: "task.requeued" in [e["name"] for e in events.snapshot()],
                1.0,
                "requeue",
            )
            assert time.perf_counter() - killed < 1.0
            (tmp_path / "go").touch()
            job.wait(out, timeout=60)
            assert sorted(out.data()) == [(0, 1), (1, 1)]
            assert backend.scheduler.strikes((out.id, 0)) == 1
        finally:
            backend.close()

    def test_no_slave_left_fails_unfinished_datasets(self, tmp_path):
        """Past the respawn cap, the last slave's death fails every
        unfinished dataset instead of leaving its waiters hanging, and
        so does every submit after it."""
        from repro.core.job import JobError

        job, p, backend = make_backend(
            CrashOnce, {"procs": 1}, args=[str(tmp_path / "marker"), "always"]
        )
        try:
            for respawn in range(max(4, 2 * 1)):
                (record,) = backend.alive_slaves()
                os.kill(record.pid, signal.SIGKILL)
                wait_until(
                    lambda: [r.id for r in backend.alive_slaves()]
                    not in ([], [record.id]),
                    10,
                    f"replacement {respawn + 1}",
                )
            src = job.local_data([(0, 1)], splits=1)
            mapped = job.map_data(src, p.map, splits=1)
            with pytest.raises(JobError):
                job.wait(mapped, timeout=30)
            assert mapped.error == "all workers died"
            assert backend.alive_slaves() == []
            later = job.map_data(src, p.map, splits=1)
            began = time.perf_counter()
            with pytest.raises(JobError):
                job.wait(later, timeout=30)
            assert time.perf_counter() - began < 1.0
            assert later.error == "all workers died"
        finally:
            backend.close()

    def test_respawn_forked_while_another_slave_reports_done(self):
        """The master forks a replacement from a thread while an RPC
        handler is inside ``done`` holding locks a child could want
        (the transfer plane's, a log handler's): the child takes none
        of them, signs in, and the job completes."""
        job, p, backend = make_backend(Tally, {"procs": 2})
        handler = logging.StreamHandler(open(os.devnull, "w"))
        slave_log = logging.getLogger("repro.slave")
        slave_log.addHandler(handler)
        slave_log.setLevel(logging.INFO)
        task_done = backend.task_done
        first = threading.Lock()  # two slaves may report at once
        forked = []

        def done_while_forking(worker_id, *args):
            if first.acquire(blocking=False):
                others = [r for r in backend.alive_slaves() if r.id != worker_id]
                count = len(backend.group.processes)
                with transfer.STATS._lock, transfer._pool_lock, handler.lock:
                    os.kill(others[0].pid, signal.SIGKILL)
                    wait_until(
                        lambda: len(backend.group.processes) > count,
                        10,
                        "respawn",
                    )
                    forked.append(backend.group.processes[-1].pid)
            task_done(worker_id, *args)

        backend.task_done = done_while_forking
        try:
            src = job.local_data([(i, i) for i in range(9)], splits=3)
            out = job.reduce_data(job.map_data(src, p.map), p.reduce, splits=2)
            job.wait(out, timeout=60)
            assert sorted(out.data()) == [(0, 3), (1, 3), (2, 3)]
            wait_until(
                lambda: forked[0] in [r.pid for r in backend.alive_slaves()],
                10,
                "sign-in of the replacement",
            )
            counters = backend.metrics()["metrics"]["counters"]
            assert counters["slaves.lost"] == 1
        finally:
            backend.close()
            slave_log.removeHandler(handler)
            slave_log.setLevel(logging.NOTSET)
            handler.stream.close()
