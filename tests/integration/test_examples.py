"""Every example script must run end-to-end (guards against rot)."""

import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.integration

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


@pytest.fixture(autouse=True)
def example_tmpdir(tmp_path, monkeypatch):
    """Examples keep their work directories for the user to inspect;
    under test they land in the test's own tmp_path, not in /tmp."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))


def run_example(name, *args, timeout=300):
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "identical output" in result.stdout

    def test_pi_estimation(self):
        result = run_example("pi_estimation.py", "200000")
        assert result.returncode == 0, result.stderr
        assert "Hadoop (modeled)" in result.stdout

    def test_pso_rosenbrock(self):
        result = run_example("pso_rosenbrock.py", "10")
        assert result.returncode == 0, result.stderr
        assert "bit-identical" in result.stdout

    def test_kmeans(self):
        result = run_example("kmeans_clustering.py")
        assert result.returncode == 0, result.stderr
        assert "converged" in result.stdout

    def test_hadoop_comparison(self):
        result = run_example("hadoop_comparison.py", "15")
        assert result.returncode == 0, result.stderr
        assert "identical counts" in result.stdout or "identical output" in (
            result.stdout
        )
