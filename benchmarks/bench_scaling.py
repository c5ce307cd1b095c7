"""Extension — parallel scaling of the Mrs parallel runtimes.

Not a paper table (the paper's cluster numbers are per-application),
but the claim "Mrs programs are fast" implies real speedup from real
worker processes.  We run a compute-bound pi job (pure-Python kernel,
so each task is genuinely CPU-heavy) on 1, 2, and 4 local slave
processes, then sweep ``--mrs multiprocess`` (slaves forked from the
master) over 1/2/4/8 slaves, and report speedup vs the in-process
serial run.  The multiprocess sweep also writes a machine-readable JSON
speedup table.
"""

import os
import time

from repro.apps.pi.estimator import PiEstimator
from repro.core.main import run_program
from repro.runtime.cluster import run_on_cluster
from reporting import fmt_seconds, once, print_table, write_json_table

SAMPLES = 1_200_000
TASKS = 8
PROC_SWEEP = (1, 2, 4, 8)


def timed_cluster_pi(n_slaves: int, samples: int = SAMPLES):
    flags = ["--pi-samples", str(samples), "--pi-tasks", str(TASKS)]
    started = time.perf_counter()
    program = run_on_cluster(PiEstimator, flags, n_slaves=n_slaves)
    return program, time.perf_counter() - started


def test_slave_scaling(benchmark):
    serial_started = time.perf_counter()
    serial = run_program(
        PiEstimator,
        ["--pi-samples", str(SAMPLES), "--pi-tasks", str(TASKS)],
        impl="serial",
    )
    serial_s = time.perf_counter() - serial_started

    results = {}
    for n_slaves in (1, 2, 4):
        if n_slaves == 2:
            program, seconds = once(benchmark, timed_cluster_pi, n_slaves)
        else:
            program, seconds = timed_cluster_pi(n_slaves)
        assert program.pi_estimate == serial.pi_estimate
        results[n_slaves] = seconds

    rows = [["serial (in-process)", fmt_seconds(serial_s), "1.0x"]]
    for n_slaves, seconds in results.items():
        rows.append([
            f"{n_slaves} slave(s)",
            fmt_seconds(seconds),
            f"{serial_s / seconds:.2f}x",
        ])
    cores = os.cpu_count() or 1
    print_table(
        f"Scaling: pi with {SAMPLES:,} samples, {TASKS} tasks "
        "(compute-bound pure-Python kernel)",
        ["configuration", "wall time", "speedup vs serial"],
        rows,
        notes=[
            "includes cluster spin-up (~0.2-0.5 s) and per-task RPC; "
            f"speedup is bounded by the {cores} core(s) available here",
        ],
    )
    # The shape depends on physical parallelism: with multiple cores,
    # more slaves must help; on a single core they can only add
    # (bounded) process-switching and RPC overhead.
    if cores >= 4:
        assert results[4] < results[1]
    elif cores >= 2:
        assert results[2] < results[1] * 1.25
    else:
        assert results[4] < serial_s * 6.0, "overhead must stay bounded"
    # Identical answers everywhere (asserted per-run above).


def timed_pool_pi(procs: int, samples: int = SAMPLES):
    flags = ["--pi-samples", str(samples), "--pi-tasks", str(TASKS)]
    started = time.perf_counter()
    program = run_program(
        PiEstimator, flags, impl="multiprocess", procs=procs
    )
    return program, time.perf_counter() - started


def test_multiprocess_scaling(benchmark, tmp_path):
    """--mrs-procs sweep: forked slaves' speedup over serial, as a
    printed table and a JSON artifact (speedup.json)."""
    serial_started = time.perf_counter()
    serial = run_program(
        PiEstimator,
        ["--pi-samples", str(SAMPLES), "--pi-tasks", str(TASKS)],
        impl="serial",
    )
    serial_s = time.perf_counter() - serial_started

    results = {}
    for procs in PROC_SWEEP:
        if procs == 2:
            program, seconds = once(benchmark, timed_pool_pi, procs)
        else:
            program, seconds = timed_pool_pi(procs)
        assert program.pi_estimate == serial.pi_estimate
        results[procs] = seconds

    cores = os.cpu_count() or 1
    headers = ["configuration", "wall time", "speedup vs serial"]
    rows = [["serial (in-process)", fmt_seconds(serial_s), "1.00x"]]
    for procs, seconds in results.items():
        rows.append([
            f"{procs} forked slave(s)",
            fmt_seconds(seconds),
            f"{serial_s / seconds:.2f}x",
        ])
    notes = [
        "includes forking the slaves; speedup is bounded by the "
        f"{cores} core(s) available here",
    ]
    title = (
        f"Scaling: pi with {SAMPLES:,} samples, {TASKS} tasks "
        "on --mrs multiprocess (forked slaves)"
    )
    print_table(title, headers, rows, notes=notes)
    json_path = os.environ.get(
        "MRS_SCALING_JSON", str(tmp_path / "speedup.json")
    )
    write_json_table(json_path, title, headers, rows, notes=notes)
    print(f"json table: {json_path}")

    # Same conditional shape as the exec'd-slave sweep: with real cores
    # more slaves must beat one; on a single core they may only add
    # bounded scheduling overhead.
    if cores >= 4:
        assert results[4] < results[1]
    elif cores >= 2:
        assert results[2] < results[1] * 1.25
    else:
        assert results[8] < serial_s * 6.0, "overhead must stay bounded"
