"""User-facing text output of large buckets, across runtimes.

Worker-side output buckets take a direct batch-write path once a bucket
reaches the spill-buffer size (4096 records); the sidecar bucket that
backs user-facing text output writes two files from that one batch.
Small outputs never reach the path, so it needs its own equivalence
check: every parallel runtime's ``.txt`` must equal the serial
runtime's byte for byte.
"""

import os

import pytest

from repro.apps.wordcount import WordCount
from repro.core.main import run_program
from repro.runtime.cluster import LocalCluster

pytestmark = pytest.mark.integration

#: Distinct words, i.e. records in the single output bucket — past the
#: 4096-record batch threshold.
N_WORDS = 5000


def text_outputs(directory):
    """Visible output files by their ``source_split.ext`` suffix (the
    dataset-id prefix differs between runs)."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.startswith("."):
            with open(os.path.join(directory, name), "rb") as f:
                out["_".join(name.split("_")[-2:])] = f.read()
    return out


@pytest.fixture
def big_input(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text(
        "\n".join(f"w{i:05d} w{i:05d}" for i in range(N_WORDS)) + "\n"
    )
    return str(path)


@pytest.fixture
def serial_output(big_input, tmp_path):
    out = str(tmp_path / "serial")
    run_program(WordCount, [big_input, out], impl="serial", reduce_tasks=1)
    files = text_outputs(out)
    assert len(files) == 1
    assert sum(body.count(b"\n") for body in files.values()) == N_WORDS
    return files


def test_multiprocess_text_output_matches_serial(
    big_input, serial_output, tmp_path
):
    out = str(tmp_path / "mp")
    run_program(
        WordCount, [big_input, out],
        impl="multiprocess", reduce_tasks=1, procs=2,
    )
    assert text_outputs(out) == serial_output


def test_cluster_text_output_matches_serial(
    big_input, serial_output, tmp_path
):
    out = str(tmp_path / "cluster")
    with LocalCluster(
        WordCount, ["--mrs-reduce-tasks", "1", big_input, out], n_slaves=2
    ) as cluster:
        cluster.run()
    assert text_outputs(out) == serial_output
