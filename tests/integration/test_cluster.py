"""Distributed master/slave integration: real subprocesses, real RPC.

These tests spawn actual slave processes over localhost XML-RPC,
covering the paper's master/slave implementation leg of the
cross-implementation equivalence invariant, both data planes, the
runfile handshake (Program 3's startup protocol), and failure
injection (slave death mid-job).
"""

import os
import subprocess
import sys
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
    def test_zero_copy_flag_reaches_the_master(
        self, small_corpus, tmp_path, monkeypatch
    ):
        """``--mrs-zero-copy`` configures the master process too, not
        just the slaves that re-parse the flag — whichever entry point
        parsed it."""
        from repro.io import serializers

        # A known starting point in every CI leg, restored on exit.
        monkeypatch.setenv("MRS_ZERO_COPY", "on")
        monkeypatch.setattr(serializers, "_zero_copy_mode", None)
        root, _ = small_corpus
        flags = ["--mrs-zero-copy", "off"]
        with LocalCluster(
            WordCountCombined, flags + [root, str(tmp_path / "out")], n_slaves=1
        ) as cluster:
            assert serializers.zero_copy_mode() == "off"
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
        """If slaves cannot sign in within --mrs-slave-wait-timeout,
        start() fails loudly."""
        import repro.runtime.cluster as cluster_mod

        root, _ = small_corpus

        broken = LocalCluster(
            WordCountCombined,
            [root, str(tmp_path / "o")],
            n_slaves=1,
            opt_overrides={"slave_wait_timeout": 2.0},
        )
        # Point the slaves at a black-hole master address by breaking
        # the spawn: use a bogus spec module.
        monkeypatch.setattr(
            cluster_mod, "program_spec", lambda cls: "no.such.module:Nope"
        )
        with pytest.raises(ClusterError, match="signed in within 2.0s"):
            broken.start()
        broken.stop()

    def test_failed_start_leaves_nothing_behind(
        self, small_corpus, tmp_path, launch_leftovers
    ):
        """A start that fails closes what it opened: no server or
        watchdog thread and no run directory outlive it."""

        class Local(WordCountCombined):
            pass

        Local.__module__ = "__main__"
        root, _ = small_corpus
        cluster = LocalCluster(Local, [root, str(tmp_path / "o")], n_slaves=1)
        with pytest.raises(ClusterError, match="importable"):
            cluster.start()
        assert launch_leftovers() == []

    def test_own_run_directory_reclaimed_at_exit(self, tmp_path):
        """run_on_cluster's own run directory outlives stop() (outputs
        are read after it) but not the interpreter."""
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        script = (
            "import glob, os, tempfile\n"
            "from repro.apps.pi.estimator import PiEstimator\n"
            "from repro.runtime.cluster import run_on_cluster\n"
            "run_on_cluster(PiEstimator, ['--pi-samples', '2000'], n_slaves=1)\n"
            "pattern = os.path.join(tempfile.gettempdir(), 'mrs_cluster_*')\n"
            "print(len(glob.glob(pattern)))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, TMPDIR=str(tmp), PYTHONPATH=os.path.abspath(src))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1"  # present until exit...
        assert list(tmp.glob("mrs_*")) == []  # ...and gone after it


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
