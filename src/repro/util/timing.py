"""Wall-clock measurement helpers used by the runtime and benchmarks."""

from __future__ import annotations

from typing import Dict, List


def summarize_seconds(samples: List[float]) -> Dict[str, float]:
    """Count/total/mean/max of a list of wall-second samples."""
    if not samples:
        return {"count": 0, "total": 0.0, "mean": 0.0, "max": 0.0}
    total = sum(samples)
    return {
        "count": len(samples),
        "total": total,
        "mean": total / len(samples),
        "max": max(samples),
    }
