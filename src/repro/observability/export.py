"""JSON emission and parsing for runtime metrics reports.

The report written by ``--mrs-metrics-json PATH`` is a single JSON
object (schema below, versioned) so the same numbers the paper's
evaluation discusses — startup seconds, per-phase wall clock, per-task
spans, per-operation overhead — are available to scripts, benchmarks,
and dashboards from any real run::

    {
      "version": 1,
      "role": "serial",
      "startup": {"seconds": 0.01},
      "phases": {"map": 0.2, "reduce": 0.1},
      "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
      "spans": [{"dataset_id": ..., "task_index": 0, "events": [...],
                 "durations": {...}, "seconds": ...,
                 "total_seconds": ...}, ...],
      "operations": [{"dataset_id": ..., "kind": "map", "tasks": 4,
                      "wall_seconds": ..., "compute_seconds": ...,
                      "serialize_seconds": ..., "transfer_seconds": ...,
                      "overhead_seconds": ...}, ...],
      "summary": {"startup_seconds": ..., "compute_seconds": ...,
                  "overhead_seconds": ..., "task_count": ...}
    }

Writes are atomic (tmp file + rename) so a crash mid-dump never leaves
a truncated report behind.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

REPORT_VERSION = 1


def render_json(report: Dict[str, Any]) -> str:
    """Canonical JSON text for a report (sorted keys, stable layout)."""
    return json.dumps(report, indent=2, sort_keys=True)


def parse_json(text: str) -> Dict[str, Any]:
    report = json.loads(text)
    if not isinstance(report, dict):
        raise ValueError("metrics report must be a JSON object")
    version = report.get("version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise ValueError(
            f"metrics report has no integer 'version' field (got "
            f"{version!r}); not a report this reader understands"
        )
    if version > REPORT_VERSION:
        raise ValueError(
            f"metrics report version {version} is newer than this "
            f"reader (understands <= {REPORT_VERSION}); upgrade the "
            f"reader or re-run the job with this version"
        )
    return report


def write_json(report: Dict[str, Any], path: str) -> str:
    """Atomically write ``report`` to ``path``; returns ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as f:
        f.write(render_json(report))
        f.write("\n")
    os.replace(tmp_path, path)
    return path


def read_json(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_json(f.read())


def startup_seconds(report: Dict[str, Any]) -> float:
    """The measured startup time, 0.0 when the run recorded none."""
    return float((report.get("startup") or {}).get("seconds") or 0.0)


def phase_seconds(report: Dict[str, Any], phase: str) -> float:
    return float((report.get("phases") or {}).get(phase, 0.0))


def span_count(report: Dict[str, Any]) -> int:
    return len(report.get("spans") or [])


def operation_overhead_seconds(report: Dict[str, Any]) -> float:
    """Total framework overhead across operations (wall minus compute)."""
    return sum(
        float(op.get("overhead_seconds") or 0.0)
        for op in report.get("operations") or []
    )
