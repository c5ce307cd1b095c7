"""``python3 -m bench``: the one command.

The driver's form runs one workload and prints the contract's JSON
object as the last line::

    python3 -m bench --workload wc_zipf --seed 11 --seconds 12 --trace 0

Without ``--workload`` every workload runs (each in its own process, so
peak RSS and leaked children are per workload); without ``--trace`` both
passes run: the timed pass with tracing off, then the traced pass.

The process the caller starts only supervises: the workload runs in a
child, and the supervisor returns when every process that child started
has ended, whatever happened to the child — it ran out of time, was
signalled, crashed, or left something behind.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import List, Optional  # noqa: E402

from bench import harness  # noqa: E402


def parse_args(argv: Optional[List[str]], spec) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=11,
                        help="every input is generated from this")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="how long the timed pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: timed pass, end-to-end metrics; 1: traced "
                        "pass, layer metrics; omitted: both")
    parser.add_argument("--smoke", action="store_true",
                        help="1 repeat, 1/10 sizes, bounds not applied")
    parser.add_argument("--out", default=os.path.join(harness.ROOT, ".bench_out"),
                        help="directory for result-*.json and trace-*.json")
    # Supervisor -> child: where to leave the result line, and when (on
    # the system-wide perf_counter clock) the caller's process started.
    parser.add_argument("--supervised", nargs=2, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


#: Seconds the child may take before the supervisor stops it: under the
#: driver's 180 with room for the child's own clean-up and the sweep.
BUDGET_S = 160.0


def workload_command(args: argparse.Namespace, name: str) -> List[str]:
    command = [sys.executable, "-m", "bench", "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--out", args.out]
    if args.trace is not None:
        command += ["--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    return command


def run_each_in_subprocess(args: argparse.Namespace, names: List[str]) -> int:
    status = 0
    for name in names:
        status |= subprocess.run(workload_command(args, name), cwd=harness.ROOT).returncode
    return status


def supervised(args: argparse.Namespace, name: str) -> int:
    """Run the workload in a child; print its result line, last, once
    nothing the child started is left."""
    harness.require_program()
    work = os.path.join(harness.ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    # In a directory of its own: the child removes .bench_work when it
    # finds it empty.
    result_dir = tempfile.mkdtemp(prefix="line-", dir=work)
    result_file = os.path.join(result_dir, "line.json")
    line = None
    try:
        status, stragglers = harness.supervise(
            workload_command(args, name)
            + ["--supervised", result_file, repr(PROCESS_STARTED)],
            BUDGET_S,
        )
        if os.path.exists(result_file):
            with open(result_file) as f:
                line = json.load(f)
    except harness.Terminated as stop:
        return 128 + stop.args[0]
    finally:
        shutil.rmtree(result_dir, ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:
            pass  # another run is using .bench_work
    if line is None:
        print(f"bench: {name}: no result (child status {status})", file=sys.stderr)
        return 1
    if stragglers:
        print(f"bench: {name}: processes outlived the run: {stragglers}", file=sys.stderr)
        line["failed"] += 1
        line["correct"] = False
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    spec = harness.load_spec()
    args = parse_args(argv, spec)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    if len(names) > 1:
        return run_each_in_subprocess(args, names)
    if args.supervised is None:
        return supervised(args, names[0])
    result_file, started = args.supervised[0], float(args.supervised[1])

    harness.adopt_orphans()
    harness.die_with_parent()
    harness.exit_on_signals()
    scrubbed = harness.pin_environment()
    from bench import runner

    try:
        result = runner.run_workload(
            names[0], args.seed, args.seconds, args.trace, args.smoke,
            args.out, started, scrubbed,
        )
    except harness.Terminated as stop:
        return 128 + stop.args[0]
    runner.print_report(result, spec)
    os.makedirs(args.out, exist_ok=True)
    suffix = {0: "timed", 1: "traced", None: "both"}[args.trace]
    path = os.path.join(args.out, f"result-{names[0]}-seed{args.seed}-{suffix}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    with open(result_file, "w") as f:
        f.write(runner.contract_line(result, spec, args.trace))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
