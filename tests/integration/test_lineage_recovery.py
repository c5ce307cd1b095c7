"""Lineage re-execution on the direct (http) data plane.

With ``--mrs-data-plane http``, intermediate buckets live on the
producing slave's local disk and die with it.  The master must detect
the loss, re-run the producing tasks on surviving slaves, and let
dependent tasks retry their fetches for free — the whole job still
completes with the right answer.
"""

import time

import pytest

from repro.core.job import Job
from repro.runtime.cluster import LocalCluster
from tests.integration.programs import SummingProgram

pytestmark = pytest.mark.integration


def wait_until(predicate, timeout=15.0, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestHttpPlaneLineageRecovery:
    def test_completed_data_lost_with_slave_is_recomputed(self):
        cluster = LocalCluster(
            SummingProgram, [], n_slaves=2, data_plane="http"
        )
        cluster.start()
        try:
            backend = cluster.backend
            job = Job(backend, cluster.program)
            source = job.local_data([(i, i) for i in range(8)], splits=4)
            mapped = job.map_data(source, cluster.program.map, splits=2)
            job.wait(mapped, timeout=60)
            assert mapped.complete
            # The map output lives on the slaves' http data servers.
            urls = [b.url for b in mapped.existing_buckets()]
            assert all(url.startswith("http://") for url in urls)

            # Kill one slave: roughly half the map output evaporates.
            cluster.kill_slave(0)
            assert wait_until(
                lambda: len(backend.alive_slaves()) == 1
            ), "watchdog must notice the dead slave"
            assert wait_until(
                lambda: mapped.complete,
                timeout=30,
            ), "lost map tasks must be re-executed on the survivor"

            # Downstream consumption now works and is correct:
            # sum over i in 0..7 split by parity: even 0+2+4+6=12,
            # odd 1+3+5+7=16.
            reduced = job.reduce_data(mapped, cluster.program.reduce, splits=1)
            done = job.wait(reduced, timeout=60)
            assert reduced in done and reduced.complete
            assert dict(reduced.data()) == {0: 12, 1: 16}
        finally:
            cluster.stop()

    def test_skew_counts_each_current_bucket_once(self):
        """Re-executed map tasks replace the lost buckets; the skew row
        is a view over the buckets the dataset holds, so it reads the
        same before the loss and after the recovery."""
        cluster = LocalCluster(
            SummingProgram, [], n_slaves=2, data_plane="http"
        )
        cluster.start()
        try:
            backend = cluster.backend
            job = Job(backend, cluster.program)
            source = job.local_data([(i, i) for i in range(8)], splits=4)
            mapped = job.map_data(source, cluster.program.map, splits=2)
            job.wait(mapped, timeout=60)
            before = backend.telemetry()["skew"][mapped.id]
            assert before["records_total"] == 8
            completed = backend.observability.registry.counter(
                "tasks.completed"
            )
            tasks_before = completed.value
            cluster.kill_slave(0)
            assert wait_until(
                lambda: len(backend.alive_slaves()) == 1 and mapped.complete,
                timeout=30,
            ), "lost map tasks must be re-executed on the survivor"
            assert completed.value > tasks_before, "nothing was re-executed"
            assert backend.telemetry()["skew"][mapped.id] == before
        finally:
            cluster.stop()

    def test_consumer_in_flight_during_loss_still_completes(self):
        """Queue the reduce *before* killing the slave: its tasks will
        fetch-fail against dead URLs, which must not burn the failure
        budget while the input is being re-executed."""
        cluster = LocalCluster(
            SummingProgram, [], n_slaves=2, data_plane="http"
        )
        cluster.start()
        try:
            backend = cluster.backend
            job = Job(backend, cluster.program)
            source = job.local_data([(i, 1) for i in range(8)], splits=4)
            mapped = job.map_data(source, cluster.program.map, splits=2)
            job.wait(mapped, timeout=60)
            cluster.kill_slave(1)
            # Immediately queue the consumer; the master may hand its
            # tasks out before recovery finishes.
            reduced = job.reduce_data(mapped, cluster.program.reduce, splits=1)
            done = job.wait(reduced, timeout=90)
            assert reduced in done
            assert reduced.error is None, reduced.error
            assert dict(reduced.data()) == {0: 4, 1: 4}
        finally:
            cluster.stop()

    def test_file_plane_unaffected_by_slave_death(self, tmp_path):
        """Control: on the shared-filesystem plane the same scenario
        needs no recovery at all (paper: 'increased fault-tolerance')."""
        cluster = LocalCluster(SummingProgram, [], n_slaves=2)
        cluster.start()
        try:
            job = Job(cluster.backend, cluster.program)
            source = job.local_data([(i, i) for i in range(8)], splits=4)
            mapped = job.map_data(source, cluster.program.map, splits=2)
            job.wait(mapped, timeout=60)
            cluster.kill_slave(0)
            reduced = job.reduce_data(mapped, cluster.program.reduce, splits=1)
            job.wait(reduced, timeout=60)
            assert dict(reduced.data()) == {0: 12, 1: 16}
        finally:
            cluster.stop()
