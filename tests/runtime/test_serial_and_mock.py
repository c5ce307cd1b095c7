"""Serial and mock-parallel backend behaviour."""

import os

import pytest

from repro.core.job import Job, JobError
from repro.core.main import run_program
from repro.core.options import default_options
from repro.core.program import MapReduce
from repro.runtime.mockparallel import MockParallelBackend
from repro.runtime.serial import SerialBackend


class Tally(MapReduce):
    def map(self, key, value):
        yield (value % 3, 1)

    def reduce(self, key, values):
        yield sum(values)


def make_job(backend_cls, **kw):
    program = Tally(default_options(), [])
    backend = backend_cls(program, **kw)
    return Job(backend, program), program, backend


class TestSerialBackend:
    def test_runs_chain(self):
        job, p, _ = make_job(SerialBackend)
        src = job.local_data([(i, i) for i in range(9)], splits=3)
        out = job.reduce_data(job.map_data(src, p.map), p.reduce)
        job.wait(out)
        assert sorted(out.data()) == [(0, 3), (1, 3), (2, 3)]

    def test_deterministic_across_runs(self):
        results = []
        for _ in range(2):
            job, p, _ = make_job(SerialBackend)
            src = job.local_data([(i, i) for i in range(20)], splits=4)
            out = job.reduce_data(job.map_data(src, p.map), p.reduce)
            job.wait(out)
            results.append(out.data())
        assert results[0] == results[1]

    def test_progress_tracks_tasks(self):
        job, p, backend = make_job(SerialBackend)
        src = job.local_data([(i, i) for i in range(4)], splits=4)
        mapped = job.map_data(src, p.map)
        assert backend.progress(mapped) == 0.0
        job.wait(mapped)
        assert backend.progress(mapped) == 1.0

    def test_output_dir_files(self, tmp_path):
        job, p, _ = make_job(SerialBackend)
        src = job.local_data([(i, i) for i in range(4)])
        out = job.reduce_data(
            job.map_data(src, p.map),
            p.reduce,
            outdir=str(tmp_path / "res"),
            format="txt",
        )
        job.wait(out)
        files = os.listdir(tmp_path / "res")
        assert files and all(f.endswith(".txt") for f in files)


class TestMockParallelBackend:
    def test_intermediate_data_hits_disk(self, tmp_path):
        job, p, backend = make_job(MockParallelBackend, tmpdir=str(tmp_path))
        src = job.local_data([(i, i) for i in range(6)], splits=2)
        mapped = job.map_data(src, p.map)
        job.wait(mapped)
        spill_dirs = os.listdir(tmp_path)
        assert spill_dirs, "mock parallel must write intermediate files"
        # In-memory copies are dropped; pairs only reachable via files.
        assert all(len(b) == 0 for b in mapped.existing_buckets())
        assert mapped.data()  # refetches through the files

    def test_matches_serial_output(self):
        job_s, p_s, _ = make_job(SerialBackend)
        src = job_s.local_data([(i, i) for i in range(12)], splits=3)
        out_s = job_s.reduce_data(job_s.map_data(src, p_s.map), p_s.reduce, splits=2)
        job_s.wait(out_s)

        job_m, p_m, _ = make_job(MockParallelBackend)
        src_m = job_m.local_data([(i, i) for i in range(12)], splits=3)
        out_m = job_m.reduce_data(job_m.map_data(src_m, p_m.map), p_m.reduce, splits=2)
        job_m.wait(out_m)
        assert sorted(out_s.data()) == sorted(out_m.data())

    def test_unpicklable_data_caught_by_mock_only(self):
        """The whole point of mockparallel: it surfaces serialization
        bugs that the pure in-memory serial run hides."""

        class Sneaky(MapReduce):
            def map(self, key, value):
                yield (key, lambda: None)  # unpicklable payload

            def reduce(self, key, values):
                yield list(values)

        # Serial: passes (objects stay in memory).
        program = Sneaky(default_options(), [])
        job = Job(SerialBackend(program), program)
        src = job.local_data([(0, 0)])
        mapped = job.map_data(src, program.map)
        job.wait(mapped)  # no error

        # Mock parallel: fails loudly.
        program2 = Sneaky(default_options(), [])
        job2 = Job(MockParallelBackend(program2), program2)
        src2 = job2.local_data([(0, 0)])
        mapped2 = job2.map_data(src2, program2.map)
        with pytest.raises(JobError):
            job2.wait(mapped2)

    def test_fetchall_leaves_spill_files_intact(self, tmp_path):
        """Making intermediate buckets resident reads their files and
        never writes them: a consumer that reads the files afterwards
        sees every record."""
        job, p, backend = make_job(MockParallelBackend, tmpdir=str(tmp_path))
        src = job.local_data([(i, i) for i in range(20000)], splits=1)
        mapped = job.map_data(src, p.map, splits=1)
        job.wait(mapped)
        (bucket,) = mapped.existing_buckets()
        before = open(bucket.path, "rb").read()
        mapped.fetchall()
        assert len(bucket) == 20000
        assert open(bucket.path, "rb").read() == before
        reduced = job.reduce_data(mapped, p.reduce, splits=1)
        job.wait(reduced)
        mapped.clear()
        assert len(mapped.data()) == 20000
        assert sorted(reduced.data()) == [(0, 6667), (1, 6667), (2, 6666)]

    def test_remove_data_deletes_spills(self, tmp_path):
        job, p, backend = make_job(MockParallelBackend, tmpdir=str(tmp_path))
        src = job.local_data([(i, i) for i in range(4)])
        mapped = job.map_data(src, p.map)
        job.wait(mapped)
        spill_dir = os.path.join(str(tmp_path), mapped.id)
        assert os.listdir(spill_dir)
        job.remove_data(mapped)
        assert not os.listdir(spill_dir)

    def test_default_splits_mimics_cluster(self):
        assert MockParallelBackend.default_splits > 1

    def test_wait_honors_timeout(self):
        """wait() must stop computing at the deadline and hand back the
        partial completion set, like the master's wait."""
        import time

        class Sleepy(MapReduce):
            def map(self, key, value):
                time.sleep(0.25)
                yield (key, value)

            def reduce(self, key, values):
                yield sum(values)

        program = Sleepy(default_options(), [])
        backend = MockParallelBackend(program)
        job = Job(backend, program)
        src = job.local_data([(0, 0)], splits=1)
        first = job.map_data(src, program.map, splits=1)
        second = job.map_data(first, program.map, splits=1)
        done = backend.wait([first, second], job, timeout=0.1)
        # The deadline expired after the first dataset's ~0.25 s task;
        # the second must not have been computed.
        assert done == [first]
        assert first.complete and not second.complete
        # A later unbounded wait finishes the queue.
        done = backend.wait([first, second], job, timeout=None)
        assert sorted(d.id for d in done) == sorted(
            [first.id, second.id]
        )

    def test_wait_expired_deadline_computes_nothing(self):
        program = Tally(default_options(), [])
        backend = MockParallelBackend(program)
        job = Job(backend, program)
        src = job.local_data([(i, i) for i in range(3)], splits=1)
        mapped = job.map_data(src, program.map, splits=1)
        assert backend.wait([mapped], job, timeout=0.0) == []
        assert not mapped.complete


class TestProfiling:
    def test_profile_dir_gets_per_task_dumps(self, tmp_path):
        """--mrs-profile-tasks N, N at least the task count, writes a
        loadable .pstats per task (section IV-B's profiling culture,
        made a one-flag affair)."""
        import pstats

        from repro.core.main import run_program
        from repro.apps.wordcount import WordCountCombined

        input_file = tmp_path / "in.txt"
        input_file.write_text("a b c\n" * 50)
        run_program(
            WordCountCombined,
            [str(input_file), str(tmp_path / "out")],
            impl="serial",
            profile_tasks=100,
            tmpdir=str(tmp_path / "run"),
        )
        dumps = list((tmp_path / "run" / "mrs_task_profiles").glob("*.pstats"))
        assert len(dumps) == 2  # the one map and the one reduce task
        stats = pstats.Stats(str(dumps[0]))
        assert stats.total_calls > 0
