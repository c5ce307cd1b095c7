"""Slaves pull their tasks, and an empty intermediate bucket is no file.

A dispatch fills the slave's mailbox; the reply to its ``done``,
``failed`` or ``next`` call carries the descriptor.  These tests run
real slaves (exec'd by ``LocalCluster``, forked by ``--mrs
multiprocess``): a reply lost after the master took the descriptor from
the mailbox is answered again with the same task and no strike, a busy
slave makes one call per task, and a bucket with no records is neither
written nor reported while user output keeps every file.
"""

import json
import os
import threading

import pytest

from repro.apps.pso.mrpso import ApiaryPSO
from repro.apps.wordcount import WordCount
from repro.comm import rpc
from repro.core.job import Job
from repro.core.main import run_program
from repro.io import urls as url_io
from repro.runtime.cluster import LocalCluster
from repro.runtime.master import MasterBackend

from tests.runtime.test_multiprocess import output_by_key, start_multiprocess

pytestmark = pytest.mark.integration

PLANES = ["cluster", "multiprocess"]

PSO_FLAGS = [
    "--mrs-seed", "1", "--pso-function", "sphere", "--pso-dims", "8",
    "--pso-subswarms", "4", "--pso-particles", "4", "--pso-inner", "2",
    "--pso-outer", "30",
]


def run_on(plane, program_class, args, procs=2):
    """Run the program on ``plane`` with ``procs`` slaves; returns
    ``(program, metrics report)``."""
    if plane == "cluster":
        with LocalCluster(program_class, args, n_slaves=procs) as cluster:
            program = cluster.run()
            return program, program.metrics_report
    program, backend = start_multiprocess(program_class, args, "fork", procs)
    try:
        assert program.run(Job(backend, program)) in (None, 0)
        return program, backend.metrics()
    finally:
        backend.close()


def wordcount_input(tmp_path):
    path = tmp_path / "in.txt"
    path.write_text(
        "the quick brown fox jumps over the lazy dog\n"
        "the dog sleeps while the fox runs\n" * 10
    )
    return str(path)


class DropReplies:
    """Drop the first ``count`` replies that carry a descriptor: the
    master's handler thread takes the descriptor from the mailbox, then
    closes the connection before writing a byte of the response."""

    def __init__(self, monkeypatch, count=2):
        self.left = count
        #: (slave id, task) of each dropped reply.
        self.dropped = []
        #: Slave id -> the task of its first descriptor reply after a
        #: drop.
        self.resent = {}
        #: Strikes of each dropped task, read when it is resent.
        self.strikes = []
        self._lock = threading.Lock()
        self._local = threading.local()
        pull = MasterBackend.pull
        send_response = rpc._QuietHandler.send_response

        def dropping_pull(backend, slave_id, wait=0.0):
            reply = pull(backend, slave_id, wait)
            if isinstance(reply, dict):
                task = (reply["dataset_id"], reply["task_index"])
                with self._lock:
                    if any(s == slave_id for s, _ in self.dropped):
                        self.resent.setdefault(slave_id, task)
                        with backend._lock:
                            self.strikes.append(backend.scheduler.strikes(task))
                    if self.left:
                        self.left -= 1
                        self.dropped.append((slave_id, task))
                        self._local.drop = True
            return reply

        def dropping_send_response(handler, *args):
            if getattr(self._local, "drop", False):
                self._local.drop = False
                raise ConnectionAbortedError("reply dropped")
            send_response(handler, *args)

        monkeypatch.setattr(MasterBackend, "pull", dropping_pull)
        monkeypatch.setattr(
            rpc._QuietHandler, "send_response", dropping_send_response
        )


@pytest.mark.parametrize("plane", PLANES)
def test_lost_reply_resends_the_same_task_without_a_strike(
    tmp_path, monkeypatch, plane
):
    source = wordcount_input(tmp_path)
    run_program(
        WordCount, [source, str(tmp_path / "serial")], impl="serial",
        reduce_tasks=2,
    )
    drops = DropReplies(monkeypatch)
    _, report = run_on(
        plane,
        WordCount,
        ["--mrs-reduce-tasks", "2", source, str(tmp_path / plane)],
    )
    assert len(drops.dropped) == 2
    # Each slave whose reply was lost got that same task next.
    first_drop = {}
    for slave_id, task in drops.dropped:
        first_drop.setdefault(slave_id, task)
    assert drops.resent == first_drop
    assert drops.strikes and set(drops.strikes) == {0}
    counters = report["metrics"]["counters"]
    assert counters.get("tasks.failed", 0) == 0
    assert counters.get("slaves.lost", 0) == 0
    serial = output_by_key(tmp_path / "serial")
    assert serial and output_by_key(tmp_path / plane) == serial


def test_one_call_per_task(tmp_path):
    """A 30-iteration PSO on exec'd slaves: no push RPC, one ``done``
    per task, and the same convergence log as serial."""
    serial = run_program(ApiaryPSO, PSO_FLAGS, impl="serial")
    program, report = run_on("cluster", ApiaryPSO, PSO_FLAGS)
    assert [(r.iteration, r.evals, r.best) for r in program.convergence] == [
        (r.iteration, r.evals, r.best) for r in serial.convergence
    ]
    assert "start_task" not in json.dumps(report)
    metrics = report["metrics"]
    done = metrics["histograms"]["rpc.server.done.seconds"]["count"]
    assert done == metrics["counters"]["tasks.completed"] > 30


@pytest.mark.parametrize("plane", PLANES)
def test_pso_writes_no_empty_intermediate_bucket(monkeypatch, plane):
    """Every intermediate file a PSO run writes holds records; half of
    the buckets it used to write were empty."""
    records = []  # per .mrsb file of each released dataset
    remove_data = MasterBackend.remove_data

    def inspecting_remove_data(backend, dataset_id, job=None):
        directory = os.path.join(backend.tmpdir, dataset_id)
        for name in os.listdir(directory) if os.path.isdir(directory) else ():
            if name.endswith(".mrsb"):
                path = os.path.join(directory, name)
                records.append(len(url_io.fetch_pairs("file:" + path)))
        remove_data(backend, dataset_id, job)

    monkeypatch.setattr(MasterBackend, "remove_data", inspecting_remove_data)
    run_on(plane, ApiaryPSO, PSO_FLAGS[:-1] + ["6"])
    # 4 tasks x 4 splits per iteration would be 16 files.
    assert records and len(records) < 6 * 16
    assert 0 not in records


@pytest.mark.parametrize("plane", PLANES)
def test_user_output_keeps_empty_files(tmp_path, plane):
    """With more reduce splits than keys, user output still lists every
    file serial writes, empty ones included, with the same bytes."""
    source = str(tmp_path / "in.txt")
    with open(source, "w") as f:
        f.write("a b a c\n")
    run_program(
        WordCount, [source, str(tmp_path / "serial")], impl="serial",
        reduce_tasks=8,
    )
    run_on(
        plane,
        WordCount,
        ["--mrs-reduce-tasks", "8", source, str(tmp_path / plane)],
    )
    serial = output_by_key(tmp_path / "serial")
    assert len(serial) == 8 * 8 and b"" in serial.values()
    assert output_by_key(tmp_path / plane) == serial
