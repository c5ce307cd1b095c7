"""``python3 -m bench.compare RUN_A [RUN_B]``: do two sets of runs agree?

A *set* is a directory of ``result-*.json`` files, several seeds per
workload (``python3 -m bench.runset`` makes one).  For every workload x
end-to-end metric this prints both medians with their quartiles, the
relative difference, the bound ``BENCHMARK.json`` fixes, and a verdict:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``worse`` — it is, and the spread is narrow enough to say so;
* ``unresolved`` — the run-to-run spread of either set is wider than the
  bound, so the sets cannot settle the question.

With one directory it prints each metric's spread against a third of its
bound — the steadiness the benchmark itself has to show.  Exit status 1
on any ``worse`` (or, with one directory, any spread over its bound).
"""

from __future__ import annotations

import glob
import json
import os
import sys
from typing import Dict, List, Tuple

from bench import harness

Values = Dict[Tuple[str, str], List[float]]


def load_set(directory: str) -> Values:
    values: Values = {}
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        with open(path) as f:
            result = json.load(f)
        if result.get("smoke"):
            continue  # smoke runs are for plumbing, not numbers
        for metric, value in result["end_to_end"].items():
            values.setdefault((result["workload"], metric), []).append(value)
    return values


def worsening(metric: Dict, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``
    (negative when better)."""
    change = (b - a) / a if a else 0.0
    return change if metric["better"] == "lower" else -change


def verdict(metric: Dict, a: List[float], b: List[float]) -> Tuple[str, float]:
    worse_by = worsening(metric, harness.median(a), harness.median(b))
    if max(harness.spread(a), harness.spread(b)) > metric["bound"]:
        return "unresolved", worse_by
    return ("worse" if worse_by > metric["bound"] else "ok"), worse_by


def fmt(values: List[float]) -> str:
    q1, q2, q3 = harness.quartiles(values)
    return f"{q2:10.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    spec = harness.load_spec()
    sets = [load_set(d) for d in argv]
    bad = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if any(key not in s for s in sets):
                continue
            a = sets[0][key]
            line = f"{workload:<12} {metric['name']:<12} {fmt(a)}"
            if len(sets) == 1:
                spread = harness.spread(a)
                # The driver leaves setup_s out of the spread check.
                limit = metric["bound"]
                state = (
                    "steady" if spread <= limit / 3
                    else "loose" if spread <= limit or metric["name"] == "setup_s"
                    else "UNSTEADY"
                )
                bad += state == "UNSTEADY"
                line += f"  spread {spread:6.1%} of bound {limit:.0%}  {state}"
            else:
                b = sets[1][key]
                state, worse_by = verdict(metric, a, b)
                bad += state == "worse"
                line += (f"  | {fmt(b)}  worse by {worse_by:+7.1%} "
                         f"(bound {metric['bound']:.0%})  {state}")
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
