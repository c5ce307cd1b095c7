"""``python3 -m bench.runset --out DIR``: one complete set of runs.

Runs every workload once per seed, each run a fresh process exactly as
the driver launches it, and leaves the results in ``DIR`` for
``python3 -m bench.compare``.  ``--reverse`` walks the workloads in the
opposite order, so two sets can show that order does not matter.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from typing import List, Optional

from bench import compare, harness


def main(argv: Optional[List[str]] = None) -> int:
    spec = harness.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m bench.runset")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--reverse", action="store_true")
    args = parser.parse_args(argv)
    names = args.workload or names
    if args.reverse:
        names.reverse()
    status = 0
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for name in names:
            command = [
                sys.executable, "-m", "bench", "--workload", name,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                "--trace", "0", "--out", args.out,
            ]
            done = subprocess.run(command, cwd=harness.ROOT, capture_output=True, text=True)
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else done.stderr[-300:]
            print(f"{name} seed={seed} exit={done.returncode} {last[:150]}", flush=True)
            status |= done.returncode
    return status | compare.main([args.out])


if __name__ == "__main__":
    sys.exit(main())
