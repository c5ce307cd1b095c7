"""The documented command-line workflows, end to end in subprocesses.

These tests exercise exactly what README/Program 3 tell users to type:
run a program module serially, then distribute it by starting a master
that writes a runfile and slaves that join with nothing but the
address in it.
"""

import os
import subprocess
import sys
import time

import pytest

pytestmark = pytest.mark.integration


def run_cli(args, timeout=120, **kw):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        **kw,
    )


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "input.txt"
    path.write_text("alpha beta\nbeta gamma gamma\n")
    return str(path)


def read_counts(out_dir):
    counts = {}
    for name in os.listdir(out_dir):
        if name.startswith("."):
            continue
        with open(os.path.join(out_dir, name)) as f:
            for line in f:
                word, value = line.rstrip("\n").split("\t")
                counts[word] = int(value)
    return counts


EXPECTED = {"alpha": 1, "beta": 2, "gamma": 2}


class TestSerialCli:
    def test_module_invocation(self, corpus_file, tmp_path):
        out = str(tmp_path / "out")
        result = run_cli(
            ["-m", "repro.apps.wordcount", corpus_file, out]
        )
        assert result.returncode == 0, result.stderr
        assert read_counts(out) == EXPECTED

    def test_mockparallel_invocation(self, corpus_file, tmp_path):
        out = str(tmp_path / "out")
        result = run_cli(
            ["-m", "repro.apps.wordcount", "--mrs", "mockparallel",
             corpus_file, out]
        )
        assert result.returncode == 0, result.stderr
        assert read_counts(out) == EXPECTED

    def test_job_never_imports_the_c_kernels(self, corpus_file, tmp_path):
        """The shuffle is pure Python: a process booted the way a slave
        is, that runs a whole WordCount, loads no ``repro.native``."""
        out = str(tmp_path / "out")
        script = (
            "import sys\n"
            "from repro.runtime import slave_boot\n"
            "status = slave_boot.main(['repro.apps.wordcount:WordCount',"
            " '--mrs', 'serial', sys.argv[1], sys.argv[2]])\n"
            "assert status in (None, 0), status\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.native')))\n"
        )
        result = run_cli(["-c", script, corpus_file, out])
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"
        assert read_counts(out) == EXPECTED

    def test_bad_flag_reports_usage(self, corpus_file, tmp_path):
        result = run_cli(
            ["-m", "repro.apps.wordcount", "--mrs", "warpdrive",
             corpus_file, str(tmp_path / "o")]
        )
        assert result.returncode != 0
        assert "implementation" in result.stderr


class TestDistributedCli:
    def test_runfile_handshake_flow(self, corpus_file, tmp_path):
        """Program 3's logic: master writes host:port to a file; a
        slave joins knowing only that address; job completes."""
        out = str(tmp_path / "out")
        runfile = str(tmp_path / "master.run")
        shared = str(tmp_path / "shared")
        spec = "repro.apps.wordcount:WordCountCombined"

        master = subprocess.Popen(
            [sys.executable, "-m", "repro.runtime.slave_boot", spec,
             "--mrs", "master", "--mrs-runfile", runfile,
             "--mrs-tmpdir", shared, corpus_file, out],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        slave = None
        try:
            deadline = time.monotonic() + 30
            while not os.path.exists(runfile):
                assert master.poll() is None, master.communicate()[1]
                assert time.monotonic() < deadline, "runfile never appeared"
                time.sleep(0.1)
            address = open(runfile).read().strip()

            slave = subprocess.Popen(
                [sys.executable, "-m", "repro.runtime.slave_boot", spec,
                 "--mrs", "slave", "--mrs-master", address,
                 "--mrs-tmpdir", shared, corpus_file, out],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            stdout, stderr = master.communicate(timeout=90)
            assert master.returncode == 0, stderr
            assert read_counts(out) == EXPECTED
        finally:
            for process in (master, slave):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.wait(timeout=10)
