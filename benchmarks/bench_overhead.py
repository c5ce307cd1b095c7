"""Overhead budget gate: startup + per-operation overhead vs budget.

The paper's evaluation is an overhead argument — ~2 s startup and
~0.3 s of framework overhead per MapReduce operation, against >=30 s
per Hadoop operation.  This bench keeps those claims true as the
runtime grows: it runs a real WordCount job, reads the same metrics
report ``--mrs-metrics-json`` would emit, derives

* ``startup_seconds`` — backend construction to ready-to-run,
* ``overhead_seconds_per_operation`` — max over operations of
  (wall - compute), the report's per-dataset overhead rows,
* ``event_overhead_fraction`` — relative wall-clock cost of running
  the same job with the structured event log + JSONL sink enabled
  (best-of-N interleaved with the uninstrumented run, so machine
  drift hits both sides equally),

writes ``BENCH_overhead.json``, and exits 1 when any measurement
exceeds the checked-in budget (``benchmarks/overhead_budget.json``).
CI runs ``--smoke``; the budget is deliberately generous — it is a
regression tripwire for order-of-magnitude slips (an accidental
per-task sleep, an O(tasks^2) scheduler pass, a hot-path event emit),
not a microbenchmark.

Usage::

    PYTHONPATH=src python benchmarks/bench_overhead.py [--smoke]
        [--budget PATH] [--no-gate]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from repro.apps.wordcount import WordCountCombined
from repro.core.main import run_program
from repro.observability import export
from reporting import fmt_seconds, print_table, write_json_table

DEFAULT_BUDGET = os.path.join(os.path.dirname(__file__), "overhead_budget.json")

#: Lines of synthetic corpus per map file.
_WORDS = ("the quick brown fox jumps over the lazy dog and runs far").split()


def make_corpus(directory: str, n_files: int, lines_per_file: int) -> List[str]:
    paths = []
    for i in range(n_files):
        path = os.path.join(directory, f"in_{i}.txt")
        with open(path, "w") as f:
            for line in range(lines_per_file):
                offset = (i + line) % len(_WORDS)
                f.write(" ".join(_WORDS[offset:] + _WORDS[:offset]) + "\n")
        paths.append(path)
    return paths


def run_job(
    inputs: List[str],
    outdir: str,
    impl: str,
    event_log: Optional[str] = None,
) -> Dict[str, Any]:
    """Run WordCount once; returns {"seconds": wall, "report": report}."""
    overrides: Dict[str, Any] = {}
    if event_log:
        overrides["event_log"] = event_log
    started = time.perf_counter()
    program = run_program(
        WordCountCombined, inputs + [outdir], impl=impl, **overrides
    )
    seconds = time.perf_counter() - started
    return {"seconds": seconds, "report": program.metrics_report}


def measure(
    impl: str, n_files: int, lines_per_file: int, repeat: int
) -> Dict[str, float]:
    """Derive the gated overhead numbers from real runs.

    Plain and event-logged runs are interleaved round by round and
    each side keeps its best time, so slow drift in machine load cannot
    masquerade as instrumentation overhead.
    """
    workdir = tempfile.mkdtemp(prefix="bench_overhead_")
    try:
        inputs = make_corpus(workdir, n_files, lines_per_file)
        best_plain = float("inf")
        best_events = float("inf")
        report: Dict[str, Any] = {}
        for round_index in range(repeat):
            outdir = os.path.join(workdir, f"out_plain_{round_index}")
            plain = run_job(inputs, outdir, impl)
            best_plain = min(best_plain, plain["seconds"])
            report = plain["report"]
            outdir = os.path.join(workdir, f"out_events_{round_index}")
            log = os.path.join(workdir, f"events_{round_index}.jsonl")
            events = run_job(inputs, outdir, impl, event_log=log)
            best_events = min(best_events, events["seconds"])
        operations = report.get("operations") or []
        per_operation = max(
            (float(op.get("overhead_seconds") or 0.0) for op in operations),
            default=0.0,
        )
        return {
            "startup_seconds": export.startup_seconds(report),
            "overhead_seconds_per_operation": per_operation,
            "event_overhead_fraction": max(
                0.0, (best_events - best_plain) / best_plain
            ),
            "job_seconds": best_plain,
            "operations": float(len(operations)),
            "task_count": float(
                (report.get("summary") or {}).get("task_count") or 0
            ),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


#: Measurement keys the budget gates (the rest are context).
GATED = (
    "startup_seconds",
    "overhead_seconds_per_operation",
    "event_overhead_fraction",
)


def load_budget(path: str) -> Dict[str, float]:
    with open(path) as f:
        doc = json.load(f)
    budgets = doc.get("budgets")
    if not isinstance(budgets, dict):
        raise ValueError(f"{path}: no 'budgets' object")
    return {key: float(value) for key, value in budgets.items()}


def check_budget(
    measured: Dict[str, float], budget: Dict[str, float]
) -> List[str]:
    """Budget violations, as human-readable strings (empty = pass)."""
    violations = []
    for key in GATED:
        limit = budget.get(key)
        if limit is None:
            continue
        value = measured.get(key, 0.0)
        if value > limit:
            violations.append(
                f"{key}: measured {value:.4f} exceeds budget {limit:.4f}"
            )
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--impl", default="serial",
                        help="backend to measure (default: serial)")
    parser.add_argument("--files", type=int, default=8)
    parser.add_argument("--lines", type=int, default=2_000)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload for CI: exercises the gate end to end",
    )
    parser.add_argument("--budget", default=DEFAULT_BUDGET,
                        help="budget JSON (default: checked-in budget)")
    parser.add_argument("--no-gate", action="store_true",
                        help="report only; never fail on budget violations")
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(__file__), "..", "BENCH_overhead.json"
        ),
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.files, args.lines, args.repeat = 4, 200, 2

    budget = load_budget(args.budget)
    measured = measure(args.impl, args.files, args.lines, args.repeat)
    violations = check_budget(measured, budget)

    headers = ["metric", "measured", "budget", "within"]
    rows = []
    for key in GATED:
        limit = budget.get(key)
        rows.append(
            [
                key,
                round(measured[key], 4),
                limit if limit is not None else "-",
                "no" if any(v.startswith(key + ":") for v in violations)
                else "yes",
            ]
        )
    notes = [
        f"workload: WordCount on {args.files} files x {args.lines} lines, "
        f"impl={args.impl}, best of {args.repeat} (plain vs event-logged "
        f"interleaved)",
        f"job wall time {fmt_seconds(measured['job_seconds'])}, "
        f"{int(measured['operations'])} operations, "
        f"{int(measured['task_count'])} tasks",
        "paper's claims: ~2 s startup, ~0.3 s overhead per operation",
    ]
    if args.smoke:
        notes.append("smoke run: tiny workload; gates are tripwires, "
                     "not precise timings")
    for violation in violations:
        notes.append(f"BUDGET VIOLATION: {violation}")
    print_table("Overhead budget gate", headers, rows, notes)
    write_json_table(
        os.path.abspath(args.out),
        "Overhead budget gate",
        headers,
        rows,
        notes,
    )
    print(f"wrote {os.path.abspath(args.out)}")
    if violations and not args.no_gate:
        for violation in violations:
            print(f"FAIL: {violation}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
