"""``python3 -m bench.selftest``: is the benchmark itself sound?

Unit checks of the three rules the numbers rest on — which percentile
may be quoted, how a layer's self time is computed, how an open-loop
job's latency is charged — and of the supervisor that lets no process
outlive a run, then a smoke pass of every workload (1
repeat, 1/10 sizes, both passes) that must come back correct and carry
every metric ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import List

from bench import compare, harness
from bench.trace import Tracer, self_times


def check(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)
    print(f"ok    {what}")


def test_percentile_rule() -> None:
    # The highest percentile with at least ten samples beyond it.
    check(harness.highest_percentile(9) is None, "9 samples: nothing quotable")
    check(harness.highest_percentile(20) == 50.0, "20 samples: the median only")
    check(harness.highest_percentile(99) == 75.0, "99 samples: p75, not yet p90")
    check(harness.highest_percentile(100) == 90.0, "100 samples: p90 (10 beyond)")
    check(harness.highest_percentile(200) == 95.0, "200 samples: p95")
    check(harness.highest_percentile(1000) == 99.0, "1000 samples: p99")
    values = [float(i) for i in range(1, 101)]
    check(harness.percentile(values, 50) == 50.0, "nearest-rank p50 of 1..100")
    check(harness.percentile(values, 90) == 90.0, "nearest-rank p90 of 1..100")
    check(sum(v > harness.percentile(values, 90) for v in values) == 10,
          "exactly ten samples lie beyond p90 of 100")
    q1, q2, q3 = harness.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    check(abs(harness.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) - (q3 - q1) / q2) < 1e-12,
          "spread is IQR over median")


def test_span_self_time() -> None:
    spans = [
        {"id": 0, "name": "task", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "read", "start": 1.0, "end": 4.0, "parent": 0},
        {"id": 2, "name": "sort", "start": 3.0, "end": 6.0, "parent": 0},  # overlaps read
        {"id": 3, "name": "codec", "start": 1.5, "end": 2.5, "parent": 1},
        {"id": 4, "name": "write", "start": 9.0, "end": 12.0, "parent": 0},  # runs over
    ]
    own = self_times(spans)
    check(abs(own["task"] - 4.0) < 1e-12,
          "parent self time = 10 - union(children clipped) = 10 - (5 + 1)")
    check(abs(own["read"] - 2.0) < 1e-12, "child with a grandchild: 3 - 1")
    check(abs(own["codec"] - 1.0) < 1e-12, "leaf self time is its duration")
    tracer = Tracer("selftest")
    with tracer.span("outer"):
        with tracer.span("inner", records=3):
            pass
    outer, inner = tracer.spans
    check(inner["parent"] == outer["id"] and outer["parent"] is None,
          "context-manager spans nest under the open span")
    check(tracer.total("inner", "records") == 3.0, "counts ride on spans")
    check(abs(tracer.top_level_seconds() - (outer["end"] - outer["start"])) < 1e-12,
          "only parentless spans count as top level")


def test_open_loop_accounting() -> None:
    from bench.workloads.svc_mixed import LATENCY_LIMIT_S, charge, poisson_schedule

    schedule = poisson_schedule(7, 9.0, 20.0)
    check(schedule == poisson_schedule(7, 9.0, 20.0) and schedule != poisson_schedule(8, 9.0, 20.0),
          "the arrival schedule comes from the seed and nothing else")
    check(schedule == sorted(schedule) and 0 < schedule[0] and schedule[-1] < 20.0
          and len(schedule) == 180, "rate x seconds arrivals, inside the window")
    # Due at t=1.0, sent late at 1.3 by a stalled generator, accepted at
    # 1.31, finished at 1.5: the user waited 0.5 s, not 0.2 s.
    view = {"state": "done", "submitted_at": 1.31, "started_at": 1.32, "finished_at": 1.5}
    latency, over = charge(1.0, view, True)
    check(abs(latency - 0.5) < 1e-12 and not over, "latency counts from the due time")
    check(charge(1.0, dict(view, finished_at=1.0 + LATENCY_LIMIT_S + 0.01), True)[1],
          "a job slower than the limit is over it")
    check(charge(1.0, dict(view, state="failed"), True)[1], "a failed job is over the limit")
    check(charge(1.0, view, False)[1], "a job with wrong output is over the limit")
    check(charge(1.0, None, False) == (None, True), "a job that never finished is over the limit")
    tracer = Tracer("selftest")
    job = tracer.add("service.job", 1.0, 1.5)
    tracer.add("service.server.submit", 1.3, 1.31, job)
    tracer.add("service.jobqueue.wait", 1.31, 1.32, job)
    tracer.add("service.server.run", 1.32, 1.5, job)
    check(abs(tracer.self_times()["service.job"] - 0.3) < 1e-9,
          "the job span's self time is the lateness no layer accounts for")


def test_compare_verdicts() -> None:
    lower = {"name": "job_s", "better": "lower", "bound": 0.10}
    higher = {"name": "jobs_per_s", "better": "higher", "bound": 0.10}
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    check(compare.verdict(lower, steady, [v * 1.05 for v in steady])[0] == "ok",
          "5% slower is inside a 10% bound")
    check(compare.verdict(lower, steady, [v * 1.20 for v in steady])[0] == "worse",
          "20% slower is a regression")
    check(compare.verdict(higher, steady, [v * 0.80 for v in steady])[0] == "worse",
          "20% less throughput is a regression")
    noisy = [1.0, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.5, 0.6, 1.1]
    check(compare.verdict(lower, noisy, [v * 1.2 for v in noisy])[0] == "unresolved",
          "a spread wider than the bound settles nothing")


def test_supervise() -> None:
    sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
    # A child that leaves a grandchild behind in a session of its own,
    # as LocalCluster's slaves are, and exits at once.
    leaver = [sys.executable, "-c",
              f"import subprocess; subprocess.Popen({sleeper!r}, start_new_session=True)"]
    try:
        status, stragglers = harness.supervise(leaver, 30.0)
        check(status == 0 and len(stragglers) == 1,
              "an orphaned grandchild in its own session is found and killed")
        status, stragglers = harness.supervise(sleeper, 0.5, grace_s=5.0)
        check(status == -signal.SIGALRM and not stragglers,
              "a child over its budget is stopped")
        check(not harness.live_children(), "nothing outlives supervise()")
    finally:
        for sig in harness.STOP_SIGNALS:
            signal.signal(sig, signal.SIG_DFL)


def smoke_pass() -> None:
    spec = harness.load_spec()
    parent = os.path.join(harness.ROOT, ".bench_out")
    os.makedirs(parent, exist_ok=True)
    out = tempfile.mkdtemp(prefix="selftest-", dir=parent)
    try:
        for workload in [w["name"] for w in spec["workloads"]]:
            done = subprocess.run(
                [sys.executable, "-m", "bench", "--workload", workload, "--smoke",
                 "--seed", "3", "--out", out],
                cwd=harness.ROOT, capture_output=True, text=True,
            )
            check(done.returncode == 0, f"{workload}: smoke run exits 0")
            line = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(line) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: the last line has exactly the contract's keys")
            check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                  f"{workload}: every output matched its reference")
            wanted = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
            check(sorted(line["metrics"]) == sorted(wanted),
                  f"{workload}: every metric BENCHMARK.json names is reported")
            check(all(line["metrics"][m["name"]]["value"] > 0 for m in spec["end_to_end"]),
                  f"{workload}: no end-to-end metric is 0")
            check(os.path.exists(os.path.join(out, f"trace-{workload}.json")),
                  f"{workload}: trace-{workload}.json written")
            with open(os.path.join(out, f"result-{workload}-seed3-both.json")) as f:
                result = json.load(f)
            check(result["smoke"] is True and result["claim"] is None,
                  f"{workload}: result marked smoke, claim null")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    check(not os.path.exists(os.path.join(harness.ROOT, ".bench_work")),
          "no work directory left behind")


def main(argv: List[str]) -> int:
    harness.pin_environment()
    test_percentile_rule()
    test_span_self_time()
    test_open_loop_accounting()
    test_compare_verdicts()
    test_supervise()
    if "--unit" not in argv:
        smoke_pass()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
