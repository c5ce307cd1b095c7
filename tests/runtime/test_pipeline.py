"""Chains of datasets at the runtime level.

Zero-task datasets complete (and unblock dependents) under every
runtime, and an unfused iterative program — two barriers per iteration
— computes the same thing on every implementation.
"""

import pytest

from repro.apps.pso.mrpso import ApiaryPSO
from repro.core import dataset as ds
from repro.core.job import Job
from repro.core.main import run_program
from repro.core.options import default_options
from repro.runtime.mockparallel import MockParallelBackend
from repro.runtime.multiprocess import MultiprocessBackend
from repro.runtime.serial import SerialBackend

from tests.runtime.programs_mp import Tally

# Unfused PSO: a reduce and a map per iteration, each behind its own
# dataset barrier.
PSO_FLAGS = [
    "--mrs-seed", "11", "--pso-function", "sphere", "--pso-dims", "6",
    "--pso-subswarms", "4", "--pso-particles", "3", "--pso-inner", "2",
    "--pso-outer", "5", "--pso-no-fuse", "--pso-qmax", "3",
]


def pso_log(prog):
    return [(r.iteration, r.evals, r.best) for r in prog.convergence]


def make_job(impl, tmp_path, opts_overrides=None):
    overrides = dict(opts_overrides or {})
    opts = default_options(**overrides)
    program = Tally(opts, [])
    if impl == "serial":
        backend = SerialBackend(program)
    elif impl == "mockparallel":
        backend = MockParallelBackend(program)
    else:
        overrides.setdefault("procs", 2)
        overrides.setdefault("tmpdir", str(tmp_path / "mp"))
        opts = default_options(**overrides)
        program = Tally(opts, [])
        backend = MultiprocessBackend(program, opts, [])
    return Job(backend, program), program, backend


class TestZeroTaskDatasets:
    """The verified repro: an empty input split set makes ``ntasks=0``
    datasets, whose dependents used to stall forever on the scheduler
    runtimes (completion only propagated via ``task_done``)."""

    @pytest.mark.parametrize("impl", ("serial", "mockparallel", "multiprocess"))
    def test_dependent_of_empty_dataset_completes(self, impl, tmp_path):
        job, program, backend = make_job(impl, tmp_path)
        try:
            empty_src = job._register(ds.LocalData([], splits=0))
            mapped = job.map_data(empty_src, program.map, splits=3)
            assert mapped.ntasks == 0
            reduced = job.reduce_data(mapped, program.reduce, splits=2)
            done = job.wait(reduced, timeout=30)
            assert reduced in done
            assert reduced.error is None
            assert reduced.complete, "dependent of empty dataset stalled"
            assert reduced.data() == []
        finally:
            backend.close()

    @pytest.mark.parametrize("impl", ("serial", "mockparallel", "multiprocess"))
    def test_empty_dataset_itself_waitable(self, impl, tmp_path):
        job, program, backend = make_job(impl, tmp_path)
        try:
            empty_src = job._register(ds.LocalData([], splits=0))
            mapped = job.map_data(empty_src, program.map, splits=2)
            job.wait(mapped, timeout=30)
            assert mapped.complete
            assert mapped.data() == []
        finally:
            backend.close()


class TestPipelinedEquivalence:
    def test_unfused_pso_identical_across_impls_and_modes(self, tmp_path):
        """The same convergence log, bit for bit, from every
        implementation, and on the pool with task affinity on and off:
        the scheduler decides when and where tasks run, never what they
        compute."""
        logs = {}
        for impl in ("serial", "mockparallel"):
            logs[impl] = pso_log(run_program(ApiaryPSO, PSO_FLAGS, impl=impl))
        for no_affinity in (False, True):
            prog = run_program(
                ApiaryPSO,
                PSO_FLAGS,
                impl="multiprocess",
                procs=4,
                no_affinity=no_affinity,
                tmpdir=str(tmp_path / f"mp_{no_affinity}"),
            )
            logs[f"multiprocess/no_affinity={no_affinity}"] = pso_log(prog)
        reference = logs.pop("serial")
        assert reference, "PSO produced no convergence log"
        for impl, log in logs.items():
            assert log == reference, f"{impl} diverged from serial"
