"""Chains of datasets on the master/slave runtime.

* zero-task datasets (an empty input split set) complete and unblock
  their dependents instead of stalling the job forever;
* killing a slave mid-iteration re-runs only the dead slave's tasks:
  its consumers wait at the dataset barrier for the re-run, and work
  produced by survivors is never re-executed.
"""

import time

import pytest

from repro.core.job import Job
from repro.runtime.cluster import LocalCluster
from tests.integration.programs import ModSumProgram, SummingProgram

pytestmark = pytest.mark.integration


def wait_until(predicate, timeout=15.0, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestZeroTaskDatasetsOnCluster:
    def test_dependent_of_empty_dataset_completes(self):
        cluster = LocalCluster(SummingProgram, [], n_slaves=1)
        cluster.start()
        try:
            job = Job(cluster.backend, cluster.program)
            empty = job.local_data([], splits=0)
            mapped = job.map_data(empty, cluster.program.map, splits=2)
            assert mapped.ntasks == 0
            reduced = job.reduce_data(mapped, cluster.program.reduce, splits=1)
            done = job.wait(reduced, timeout=60)
            assert reduced in done
            assert reduced.error is None, reduced.error
            assert reduced.complete, "dependent of empty dataset stalled"
            assert reduced.data() == []
        finally:
            cluster.stop()


class TestPipelinedLineageRecovery:
    def test_kill_slave_mid_iteration_reruns_only_the_dead_slaves_tasks(self):
        cluster = LocalCluster(
            ModSumProgram, [], n_slaves=2, data_plane="http"
        )
        cluster.start()
        try:
            backend = cluster.backend
            program = cluster.program
            events = backend.observability.enable_events(unbounded=True)
            job = Job(backend, program)

            source = job.local_data(
                [(i, 1) for i in range(8)], splits=4, parter=program.mod4
            )
            mapped = job.map_data(
                source, program.map, splits=4, parter=program.mod4
            )
            reduced = job.reduce_data(
                mapped, program.reduce, splits=4, parter=program.mod4
            )
            # Submit the next iteration while this one is still in
            # flight, then kill a slave.
            mapped2 = job.map_data(
                reduced, program.map, splits=4, parter=program.mod4
            )
            before = set(backend.alive_slaves())
            cluster.kill_slave(0)
            assert wait_until(
                lambda: len(backend.alive_slaves()) == 1, timeout=30
            ), "watchdog must notice the dead slave"
            killed = (before - set(backend.alive_slaves())).pop()

            reduced2 = job.reduce_data(mapped2, program.reduce, splits=1)
            done = job.wait(reduced2, timeout=120)
            assert reduced2 in done
            assert reduced2.error is None, reduced2.error
            # Two map passes, each incrementing by 1: (i, 1) -> 3.
            assert dict(reduced2.data()) == {i: 3 for i in range(8)}

            # Let lineage re-execution quiesce, then check precision:
            # a reduced task first produced by the *survivor* must
            # never have re-run.  Only the dead slave's tasks were reset.
            assert wait_until(
                lambda: backend.scheduler.outstanding() == 0, timeout=60
            ), "recovery never quiesced"
            commits = {}
            for event in events.snapshot():
                if event["name"] != "task.committed":
                    continue
                fields = event["fields"]
                if fields["dataset_id"] == reduced.id:
                    commits.setdefault(fields["task_index"], []).append(
                        fields["slave"]
                    )
            assert set(commits) == set(range(4)), "missing reduce commits"
            for task_index, producers in sorted(commits.items()):
                if producers[0] != killed:
                    assert len(producers) == 1, (
                        f"reduce task {task_index} was produced by a "
                        f"surviving slave but re-ran: {producers}"
                    )
        finally:
            cluster.stop()
