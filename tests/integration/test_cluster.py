"""Distributed master/slave integration: real subprocesses, real RPC.

These tests spawn actual slave processes over localhost XML-RPC,
covering the paper's master/slave implementation leg of the
cross-implementation equivalence invariant, both data planes, the
runfile handshake (Program 3's startup protocol), and failure
injection (slave death mid-job).
"""

import os
import time

import pytest

from repro.apps.pi.estimator import PiEstimator
from repro.apps.pso.mrpso import ApiaryPSO
from repro.apps.wordcount import WordCountCombined, output_counts
from repro.core.main import run_program
from repro.runtime.cluster import ClusterError, LocalCluster, program_spec

pytestmark = pytest.mark.integration


@pytest.fixture
def corpus_args(small_corpus, tmp_path):
    root, _ = small_corpus
    return [root, str(tmp_path / "out")]


class TestWordCountDistributed:
    @pytest.mark.parametrize("plane", ["file", "http"])
    def test_matches_serial(self, small_corpus, tmp_path, plane):
        root, _ = small_corpus
        serial = run_program(
            WordCountCombined, [root, str(tmp_path / "s")], impl="serial"
        )
        with LocalCluster(
            WordCountCombined,
            [root, str(tmp_path / plane)],
            n_slaves=2,
            data_plane=plane,
        ) as cluster:
            distributed = cluster.run()
        assert output_counts(distributed) == output_counts(serial)

    def test_output_files_written(self, small_corpus, tmp_path):
        root, _ = small_corpus
        out = str(tmp_path / "out")
        with LocalCluster(WordCountCombined, [root, out], n_slaves=2) as c:
            c.run()
        visible = [f for f in os.listdir(out) if not f.startswith(".")]
        assert visible and all(f.endswith(".txt") for f in visible)


class TestProcessWideOptions:
    def test_native_and_zero_copy_flags_reach_the_master(
        self, small_corpus, tmp_path, monkeypatch
    ):
        """``--mrs-native`` / ``--mrs-zero-copy`` configure the master
        process too, not just the slaves that re-parse the flags —
        whichever entry point parsed them."""
        from repro.io import serializers
        from repro.native import kernels

        # A known starting point in every CI leg, restored on exit.
        monkeypatch.setenv("MRS_NATIVE", "auto")
        monkeypatch.setenv("MRS_ZERO_COPY", "on")
        monkeypatch.setattr(kernels, "_mode", None)
        monkeypatch.setattr(serializers, "_zero_copy_mode", None)
        root, _ = small_corpus
        flags = ["--mrs-native", "off", "--mrs-zero-copy", "off"]
        with LocalCluster(
            WordCountCombined, flags + [root, str(tmp_path / "out")], n_slaves=1
        ) as cluster:
            assert kernels.mode() == "off"
            assert serializers.zero_copy_mode() == "off"
            assert os.environ["MRS_NATIVE"] == "off"
            assert os.environ["MRS_ZERO_COPY"] == "off"
            distributed = cluster.run()
        serial = run_program(
            WordCountCombined, [root, str(tmp_path / "s")], impl="serial"
        )
        assert output_counts(distributed) == output_counts(serial)


class TestTransferPlaneDistributed:
    def test_fetch_counters_reach_master_metrics(self, small_corpus, tmp_path):
        """With the http data plane, reduce inputs are fetched through
        the transfer plane; the slaves' per-task fetch counters must
        ride the piggyback snapshots into the master's merged report."""
        root, _ = small_corpus
        with LocalCluster(
            WordCountCombined,
            [root, str(tmp_path / "out")],
            n_slaves=2,
            data_plane="http",
        ) as cluster:
            program = cluster.run()
        counters = program.metrics_report["metrics"]["counters"]
        assert counters.get("fetch.requests", 0) > 0
        assert counters.get("fetch.bytes", 0) > 0
        assert "fetch.connections.created" in counters


class TestPiDistributed:
    def test_matches_serial_exactly(self, tmp_path):
        flags = ["--pi-samples", "40000", "--pi-tasks", "6"]
        serial = run_program(PiEstimator, flags, impl="serial")
        with LocalCluster(PiEstimator, flags, n_slaves=2) as cluster:
            distributed = cluster.run()
        assert distributed.pi_estimate == serial.pi_estimate


class TestPsoDistributed:
    def test_stochastic_equivalence(self):
        flags = [
            "--mrs-seed", "17", "--pso-function", "sphere", "--pso-dims", "6",
            "--pso-subswarms", "3", "--pso-particles", "4",
            "--pso-inner", "3", "--pso-outer", "5",
        ]
        serial = run_program(ApiaryPSO, flags, impl="serial")
        with LocalCluster(ApiaryPSO, flags, n_slaves=2) as cluster:
            distributed = cluster.run()
        assert [tuple(r) for r in distributed.convergence] != []
        assert [
            (r.iteration, r.evals, r.best) for r in distributed.convergence
        ] == [(r.iteration, r.evals, r.best) for r in serial.convergence]


class TestFailureInjection:
    def test_slave_death_mid_job_recovers(self, tmp_path):
        """Kill one of three slaves mid-run; the watchdog reassigns its
        tasks and the job still completes with the right answer
        (file data plane: intermediate data survives the death)."""
        flags = ["--pi-samples", "120000", "--pi-tasks", "12"]
        serial = run_program(PiEstimator, flags, impl="serial")
        cluster = LocalCluster(PiEstimator, flags, n_slaves=3)
        cluster.start()
        try:
            cluster.kill_slave(0)
            program = cluster.run()
        finally:
            cluster.stop()
        assert program.pi_estimate == serial.pi_estimate

    def test_all_results_despite_slow_signin(self, tmp_path):
        """A cluster with one slave still completes a multi-task job."""
        flags = ["--pi-samples", "10000", "--pi-tasks", "5"]
        with LocalCluster(PiEstimator, flags, n_slaves=1) as cluster:
            program = cluster.run()
        serial = run_program(PiEstimator, flags, impl="serial")
        assert program.pi_estimate == serial.pi_estimate


class TestStartupProtocol:
    def test_runfile_handshake(self, tmp_path, small_corpus):
        """Program 3 step 2-3: master writes host:port to the runfile."""
        root, _ = small_corpus
        runfile = str(tmp_path / "master.run")
        cluster = LocalCluster(
            WordCountCombined,
            [root, str(tmp_path / "out")],
            n_slaves=1,
            opt_overrides={"runfile": runfile},
        )
        cluster.start()
        try:
            content = open(runfile).read().strip()
            host, port = content.rsplit(":", 1)
            assert int(port) == cluster.backend.rpc.port
        finally:
            cluster.stop()
        assert not os.path.exists(runfile)  # removed on close

    def test_main_class_must_be_importable(self):
        class Local(WordCountCombined):
            pass

        Local.__module__ = "__main__"
        with pytest.raises(ClusterError, match="importable"):
            program_spec(Local)

    def test_too_few_slaves_times_out(self, small_corpus, tmp_path, monkeypatch):
        """If slaves cannot sign in, start() fails loudly."""
        import repro.runtime.cluster as cluster_mod

        monkeypatch.setattr(cluster_mod, "SIGNIN_TIMEOUT", 2.0)
        root, _ = small_corpus

        broken = LocalCluster(
            WordCountCombined, [root, str(tmp_path / "o")], n_slaves=1
        )
        # Point the slaves at a black-hole master address by breaking
        # the spawn: use a bogus spec module.
        monkeypatch.setattr(
            cluster_mod, "program_spec", lambda cls: "no.such.module:Nope"
        )
        with pytest.raises(ClusterError, match="signed in"):
            broken.start()
        broken.stop()


class TestTypedSerializersDistributed:
    def test_typed_codecs_across_processes(self, small_corpus, tmp_path):
        """Serializer names ride in task descriptors; slave processes
        must encode/decode the binary format identically."""
        from repro.apps.wordcount import WordCountCombined
        from tests.integration.programs import TypedWordCount

        root, _ = small_corpus
        typed = run_program  # alias for line length
        with LocalCluster(
            TypedWordCount, [root, str(tmp_path / "t")], n_slaves=2
        ) as cluster:
            distributed = cluster.run()
        serial = typed(
            WordCountCombined, [root, str(tmp_path / "s")], impl="serial"
        )
        assert dict(distributed.output_data.iterdata()) == output_counts(serial)
