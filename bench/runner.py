"""Run one workload: set-up rounds, the timed pass, the traced pass,
and the result in the shape the contract asks for."""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Any, Dict, List, Optional

from bench import harness
from bench.trace import Tracer

#: Fewest timed samples a reported statistic may rest on.
MIN_REPEATS = 5
#: Set-up is done this many times per run and its median reported, so
#: one slow ``gcc`` or directory walk does not decide ``setup_s``.
SETUP_ROUNDS = 3


def set_up(workload: Any, work: harness.WorkDir, process_started: float) -> float:
    """Everything untimed, and what it cost: imports, input generation,
    the cold native-kernel compile, and the serial reference run.

    The repeatable part (inputs + compile) runs ``SETUP_ROUNDS`` times,
    each into fresh directories with a cold kernel cache; ``setup_s`` is
    the median round plus the parts that can only happen once.
    """
    import numpy  # noqa: F401  (paying for the import is part of set-up)

    from repro.native import kernels

    once = time.perf_counter() - process_started
    rounds: List[float] = []
    previous = None
    for _ in range(SETUP_ROUNDS):
        work.use_tmp(work.fresh("tmp"))
        inputs = work.fresh("inputs")
        began = time.perf_counter()
        workload.generate(inputs)
        # Forget the loaded library so get() builds into the cold cache
        # TMPDIR now points at; workers then find it warm.
        kernels.set_mode("auto")
        seconds, loaded = harness.timed(kernels.get)
        workload.note("native.compile_s", seconds)
        rounds.append(time.perf_counter() - began)
        if previous is not None:
            shutil.rmtree(previous)
        previous = inputs
    workload.native_available = loaded is not None
    seconds, _ = harness.timed(workload.prepare)
    return harness.median(rounds) + once + seconds


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: Optional[int],
    smoke: bool,
    out: Optional[str],
    process_started: float,
    scrubbed: Dict[str, str],
) -> Dict[str, Any]:
    """Returns the full result; ``trace`` is 0 (timed pass only), 1
    (traced pass only) or ``None`` (both)."""
    from bench.workloads import WORKLOADS

    work = harness.WorkDir()
    end_to_end: Dict[str, float] = {}
    per_layer: Dict[str, float] = {}
    samples: Dict[str, Any] = {}
    layer_table: Dict[str, float] = {}
    try:
        workload = WORKLOADS[name](seed, smoke, work)
        setup_s = set_up(workload, work, process_started)
        if trace in (0, None):
            end_to_end = workload.measure(
                0.0 if smoke else seconds, 1 if smoke else MIN_REPEATS
            )
            end_to_end["setup_s"] = setup_s
            samples = workload.samples_record()
        if trace in (1, None):
            tracer = Tracer(name)
            per_layer = workload.trace(tracer, seconds)
            for note, values in workload.notes.items():
                per_layer[note] = harness.median(values)
            per_layer["native.kernels.available"] = float(workload.native_available)
            per_layer["bench.failed_frac"] = workload.failed / max(1, workload.attempted)
            if out:
                os.makedirs(out, exist_ok=True)
                tracer.write(
                    os.path.join(out, f"trace-{name}.json"),
                    {"seed": seed, "smoke": smoke},
                )
            layer_table = tracer.self_times()
    finally:
        leaked = harness.reap_children()
        work.remove()
    failed = workload.failed + (1 if leaked else 0)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "claim": None,
        "correct": failed == 0,
        "attempted": max(1, workload.attempted),
        "failed": failed,
        "failed_frac": failed / max(1, workload.attempted),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "layer_self_seconds": layer_table,
        "serial_job_s": workload.serial_job_s,
        "samples": samples,
        "leaked_children": leaked,
        "sizes": workload.size,
        "environment": harness.environment_record(scrubbed),
        "wall_s": time.perf_counter() - process_started,
    }


def contract_line(result: Dict[str, Any], spec: Dict[str, Any], trace: Optional[int]) -> str:
    """The one JSON object the driver reads: exactly ``correct``,
    ``attempted``, ``failed`` and ``metrics``, every value with all its
    digits."""
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace in (0, None):
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {
                "value": result["end_to_end"][m["name"]], "unit": m["unit"]
            }
    if trace in (1, None):
        for m in spec["per_layer"]:
            metrics[m["name"]] = {
                "value": result["per_layer"].get(m["name"], 0.0), "unit": m["unit"]
            }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def print_report(result: Dict[str, Any], spec: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the layer table."""
    name = result["workload"]
    print(f"== {name}  seed={result['seed']}  sizes={result['sizes']}"
          f"{'  SMOKE' if result['smoke'] else ''}")
    n = result["samples"].get("n")
    for section, kind in (("end_to_end", "end-to-end"), ("per_layer", "layer")):
        values = result[section]
        if not values:
            continue
        print(f"-- {kind} metrics" + (f" (from {n} timed samples)" if n and section == "end_to_end" else ""))
        for m in spec[section]:
            value = values.get(m["name"], 0.0)
            print(f"{m['name']:<44} {value:>14.6g} {m['unit']}")
    table = result["layer_self_seconds"]
    serial = result["serial_job_s"]
    if table:
        print(f"-- traced pass: self time per layer, and as a share of "
              f"runtime.serial.job_s ({serial:.3f} s)")
        for layer, secs in sorted(table.items(), key=lambda kv: -kv[1]):
            share = secs / serial if serial else 0.0
            print(f"{layer:<44} {secs:>10.4f} s {share:>8.1%}")
    print(f"-- attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed_frac']:.4f} wall={result['wall_s']:.1f}s")
