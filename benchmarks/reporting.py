"""Paper-style result tables for the benchmark harness.

Every bench prints the rows/series the paper reports, with three
columns of provenance: the paper's number, our measured number at the
scaled workload, and (where meaningful) the extrapolation of our
measurement to paper scale.  EXPERIMENTS.md mirrors these tables.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Iterable, List, Optional, Sequence


def print_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: Optional[List[str]] = None,
) -> None:
    rows = [["" if v is None else str(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join("-" * w for w in widths)
    out = sys.stdout
    out.write(f"\n== {title} ==\n")
    out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)) + "\n")
    out.write(line + "\n")
    for row in rows:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n")
    for note in notes or []:
        out.write(f"note: {note}\n")
    out.flush()


def json_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: Optional[List[str]] = None,
) -> dict:
    """The table :func:`print_table` renders, as a JSON-ready dict —
    one record per row, keyed by header, so scripts can consume bench
    results without scraping stdout."""
    records = []
    for row in rows:
        row = list(row)
        records.append(
            {h: (row[i] if i < len(row) else None) for i, h in enumerate(headers)}
        )
    return {
        "version": 1,
        "title": title,
        "headers": list(headers),
        "rows": records,
        "notes": list(notes or []),
    }


def write_json_table(
    path: str,
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: Optional[List[str]] = None,
) -> dict:
    """Atomically write :func:`json_table` output to ``path``."""
    doc = json_table(title, headers, rows, notes)
    parent = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(parent, exist_ok=True)
    staging = path + ".tmp"
    with open(staging, "w") as f:
        json.dump(doc, f, indent=2)
    os.replace(staging, path)
    return doc


def fmt_seconds(seconds: float) -> str:
    if seconds >= 120:
        return f"{seconds / 60:.1f} min"
    if seconds >= 1:
        return f"{seconds:.1f} s"
    return f"{seconds * 1000:.0f} ms"


def fmt_count(value: float) -> str:
    if value >= 1e9:
        return f"{value / 1e9:.3g}e9"
    if value >= 1e6:
        return f"{value / 1e6:.3g}e6"
    if value >= 1e3:
        return f"{value / 1e3:.3g}e3"
    return f"{value:.3g}"


def metrics_startup_seconds(backend) -> float:
    """A backend's measured startup time, read from the runtime
    metrics layer (the same number ``--mrs-metrics-json`` reports)."""
    from repro.observability import export

    return export.startup_seconds(backend.metrics())


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Cluster-scale jobs are too slow for auto-calibrated rounds; a
    single timed round still registers the bench in the report.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
