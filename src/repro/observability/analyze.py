"""Offline event-log analysis: critical path and slave utilization.

``python -m repro.observability.analyze events.jsonl`` reconstructs,
per job, what the cluster actually did from the crash-safe JSONL event
log (``--mrs-event-log``):

* the **critical path** — the dependency-free chain of tasks that
  bounded the job's wall clock, recovered by walking back greedily from
  the last committed task (each hop lands on the latest task that
  committed before the current one started);
* **per-slave utilization** — committed task-seconds per slave over the
  job window, i.e. how much of each slave's time the scheduler kept
  busy.

``--trace OUT.json`` also writes the log as a Chrome/Perfetto timeline
(:func:`repro.observability.timeline.trace_from_events`).

Events carry process-local ``perf_counter`` timestamps; the
coordinator re-anchors remote batches into its own clock before
logging, so all ``task.*`` events here are directly comparable.
Service-mode logs interleave jobs — rows are grouped by the ``job-N.``
dataset-id namespace (plain runs land in one "default" group).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, TextIO

from repro.core.dataset import namespace_of
from repro.observability import events as events_mod, timeline


def _collect_tasks(
    rows: Sequence[Dict[str, Any]]
) -> Dict[str, List[Dict[str, Any]]]:
    """Fold task.committed rows into per-job completed-task records:
    ``{job: [{dataset_id, task_index, slave, start, end, seconds}]}``.

    ``task.committed`` carries its own duration (``seconds``), so the
    start is recovered as ``t - seconds`` even if the corresponding
    ``task.started`` row was lost to a crash.
    """
    jobs: Dict[str, List[Dict[str, Any]]] = {}
    for row in rows:
        if row.get("name") != "task.committed":
            continue
        fields = row.get("fields") or {}
        dataset_id = str(fields.get("dataset_id", ""))
        try:
            end = float(row["t"])
            seconds = float(fields.get("seconds", 0.0))
        except (KeyError, TypeError, ValueError):
            continue
        jobs.setdefault(namespace_of(dataset_id) or "default", []).append(
            {
                "dataset_id": dataset_id,
                "task_index": fields.get("task_index"),
                "slave": fields.get("slave"),
                "start": end - max(0.0, seconds),
                "end": end,
                "seconds": max(0.0, seconds),
            }
        )
    for tasks in jobs.values():
        tasks.sort(key=lambda t: t["end"])
    return jobs


def critical_path(
    tasks: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Greedy walk-back chain from the last committed task.

    From the final task, repeatedly hop to the latest-committing task
    whose end precedes the current task's start.  The result (in
    execution order) approximates the dependency chain that bounded
    wall clock: shrink these tasks and the job gets faster.
    """
    if not tasks:
        return []
    ordered = sorted(tasks, key=lambda t: t["end"])
    chain = [ordered[-1]]
    cursor = ordered[-1]["start"]
    for task in reversed(ordered[:-1]):
        if task["end"] <= cursor + 1e-9:
            chain.append(task)
            cursor = task["start"]
    chain.reverse()
    return chain


def slave_utilization(
    tasks: Sequence[Dict[str, Any]]
) -> Dict[str, Dict[str, float]]:
    """Per-slave busy seconds / task counts / utilization fraction over
    the job window (first task start to last task end)."""
    if not tasks:
        return {}
    window_start = min(t["start"] for t in tasks)
    window_end = max(t["end"] for t in tasks)
    window = max(1e-9, window_end - window_start)
    out: Dict[str, Dict[str, float]] = {}
    for task in tasks:
        slave = str(task.get("slave", "?"))
        entry = out.setdefault(
            slave, {"busy_seconds": 0.0, "tasks": 0.0, "utilization": 0.0}
        )
        entry["busy_seconds"] += task["seconds"]
        entry["tasks"] += 1
    for entry in out.values():
        entry["utilization"] = entry["busy_seconds"] / window
    return out


def analyze(rows: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The full report: per-job critical path + slave utilization."""
    jobs = _collect_tasks(rows)
    report: Dict[str, Any] = {"version": 1, "jobs": {}}
    for job, tasks in sorted(jobs.items()):
        window_start = min(t["start"] for t in tasks)
        window_end = max(t["end"] for t in tasks)
        chain = critical_path(tasks)
        report["jobs"][job] = {
            "tasks": len(tasks),
            "wall_seconds": window_end - window_start,
            "critical_path": {
                "tasks": len(chain),
                "seconds": sum(t["seconds"] for t in chain),
                "chain": [
                    {
                        "dataset_id": t["dataset_id"],
                        "task_index": t["task_index"],
                        "slave": t["slave"],
                        "seconds": t["seconds"],
                    }
                    for t in chain
                ],
            },
            "slaves": slave_utilization(tasks),
        }
    return report


def _print_text(report: Dict[str, Any], out: TextIO) -> None:
    jobs = report.get("jobs") or {}
    if not jobs:
        print("no committed tasks found in the event log", file=out)
        return
    for job, summary in jobs.items():
        print(f"== {job} ==", file=out)
        print(
            f"  tasks={summary['tasks']} "
            f"wall={summary['wall_seconds']:.2f}s",
            file=out,
        )
        path = summary["critical_path"]
        wall = max(1e-9, summary["wall_seconds"])
        print(
            f"  critical path: {path['tasks']} tasks, "
            f"{path['seconds']:.2f}s "
            f"({100.0 * path['seconds'] / wall:.0f}% of wall)",
            file=out,
        )
        for hop in path["chain"]:
            print(
                f"    {hop['dataset_id']}[{hop['task_index']}] "
                f"on {hop['slave']}: {hop['seconds']:.2f}s",
                file=out,
            )
        print("  slave utilization:", file=out)
        for slave, entry in sorted(summary["slaves"].items()):
            print(
                f"    {slave}: {entry['busy_seconds']:.2f}s busy over "
                f"{int(entry['tasks'])} tasks "
                f"({100.0 * entry['utilization']:.0f}%)",
                file=out,
            )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.analyze",
        description="Reconstruct per-job critical path and per-slave "
        "utilization from a --mrs-event-log JSONL file.",
    )
    parser.add_argument("event_log", help="path to the JSONL event log")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full report as JSON instead of text",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT",
        help="also write the log as a Chrome/Perfetto trace_event JSON "
        "timeline to OUT (open in ui.perfetto.dev)",
    )
    opts = parser.parse_args(argv)
    try:
        rows = events_mod.read_jsonl(opts.event_log)
    except (OSError, ValueError) as exc:
        print(f"cannot read {opts.event_log}: {exc}", file=sys.stderr)
        return 1
    if opts.trace:
        timeline.write_trace(timeline.trace_from_events(rows), opts.trace)
    report = analyze(rows)
    if opts.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        _print_text(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
