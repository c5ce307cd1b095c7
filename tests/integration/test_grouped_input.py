"""A file input runs as contiguous groups of files, one map task each,
and the output is byte-identical on every runtime and to one task per
file: each reduce still sees a key's values in input-file order."""

import multiprocessing
import os

import pytest

from repro.core import dataset
from repro.core.main import run_program
from repro.runtime.cluster import LocalCluster

from tests.integration.programs import OrderedJoin
from tests.runtime.test_multiprocess import output_by_key

pytestmark = pytest.mark.integration

N_FILES = 30
WORDS = ["alpha", "beta", "gamma", "delta", "eps"]
START_METHODS = sorted(
    set(multiprocessing.get_all_start_methods()) & {"fork", "spawn"}
)


@pytest.fixture
def tree(tmp_path):
    """30 small files in nested directories; file 17 carries a crash
    word whose marker already exists (so nothing crashes yet)."""
    root = tmp_path / "tree"
    marker = tmp_path / "crashed"
    marker.touch()
    for index in range(N_FILES):
        directory = root / str(index % 3) / str(index % 7)
        directory.mkdir(parents=True, exist_ok=True)
        words = [WORDS[(index + k) % len(WORDS)] for k in range(index % 4 + 2)]
        lines = [f"f{index:02d} {' '.join(words)}", f"f{index:02d} {words[0]}"]
        if index == 17:
            lines.append(f"f{index:02d} CRASH:{marker} beta")
        (directory / f"{index:02d}.txt").write_text("\n".join(lines) + "\n")
    return str(root), marker


def run(impl, tree_root, out, **opts):
    program = run_program(
        OrderedJoin, [tree_root, str(out)], impl=impl, reduce_tasks=3, **opts
    )
    return program, output_by_key(out)


@pytest.fixture
def reference(tree, tmp_path, monkeypatch):
    """Serial output with one map task per file (the layout before file
    groups), checked against the serial run with groups."""
    root, _ = tree
    with monkeypatch.context() as patch:
        patch.setattr(dataset, "FILE_TASK_BYTES", 1)
        per_file, expected = run("serial", root, tmp_path / "per_file")
    assert per_file.input.splits == N_FILES
    grouped, outputs = run("serial", root, tmp_path / "serial")
    assert 3 <= grouped.input.splits < N_FILES
    assert outputs == expected
    assert any(b",f" in text for text in expected.values())
    return expected


@pytest.mark.parametrize("start_method", START_METHODS)
def test_pool_matches_per_file_layout(tree, reference, tmp_path, start_method):
    _, outputs = run(
        "multiprocess", tree[0], tmp_path / "pool", procs=2,
        start_method=start_method,
    )
    assert outputs == reference


def test_file_plane_cluster_matches_per_file_layout(tree, reference, tmp_path):
    out = tmp_path / "cluster"
    with LocalCluster(
        OrderedJoin, ["--mrs-reduce-tasks", "3", tree[0], str(out)],
        n_slaves=2, data_plane="file",
    ) as cluster:
        cluster.run()
    assert output_by_key(out) == reference


def test_worker_killed_mid_group_recovers(tree, reference, tmp_path):
    root, marker = tree
    os.remove(marker)
    _, outputs = run("multiprocess", root, tmp_path / "killed", procs=2)
    assert marker.exists(), "no worker was killed"
    assert outputs == reference
