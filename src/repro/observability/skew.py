"""Shuffle skew: a view over the buckets each dataset holds.

The partition function decides how evenly a dataset's records spread
across its reduce buckets; a fat bucket makes its reduce task a
straggler by construction.  Skew-resistant partitioning (Goodrich et
al., PAPERS.md) needs this measured before it can be eliminated.  Each
task reports the records and bytes of every bucket it wrote next to the
bucket's URL on the done RPC, the coordinator keeps them on that
:class:`~repro.io.bucket.Bucket` (``url_size``), and :func:`summary`
rolls the buckets a dataset holds *now* into one row — so a bucket
dropped by lineage recovery and written again is counted once.

Two standard dispersion statistics per dataset:

* **max/median bucket ratio** — how much fatter the worst bucket is
  than the typical one (1.0 = perfectly balanced; the direct proxy for
  "the slowest reduce task's input is N× the median").
* **Gini coefficient** — overall inequality of the bucket-size
  distribution in [0, 1) (0 = uniform).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence


def gini(values: Sequence[float]) -> Optional[float]:
    """Gini coefficient of a non-negative distribution, or ``None`` for
    an empty/all-zero one.  Sorted-values formula:
    ``G = (2 * sum(i * x_i)) / (n * sum(x)) - (n + 1) / n`` (1-based i).
    """
    xs = sorted(float(v) for v in values)
    n = len(xs)
    total = sum(xs)
    if n == 0 or total <= 0.0:
        return None
    weighted = sum(i * x for i, x in enumerate(xs, start=1))
    return (2.0 * weighted) / (n * total) - (n + 1.0) / n


def max_over_median(values: Sequence[float]) -> Optional[float]:
    """Max/median ratio of a distribution, or ``None`` when undefined
    (empty input or zero median)."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if n == 0:
        return None
    mid = n // 2
    median = xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])
    if median <= 0.0:
        return None
    return xs[-1] / median


def summary(
    buckets_by_dataset: Dict[str, Sequence[Any]]
) -> Dict[str, Dict[str, Any]]:
    """Per-dataset skew rows over ``{dataset id: its buckets}``.

    Many tasks write into the same split, so sizes are summed per split
    first; ``buckets`` counts the splits.  Buckets of unknown size
    (inputs, spills, reports without sizes) are left out, and a dataset
    with none has no row.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for dataset_id, buckets in buckets_by_dataset.items():
        per_split: Dict[int, List[int]] = {}
        for bucket in buckets:
            if bucket.url_size is not None:
                entry = per_split.setdefault(bucket.split, [0, 0])
                entry[0] += bucket.url_size[0]
                entry[1] += bucket.url_size[1]
        if not per_split:
            continue
        record_counts = [records for records, _ in per_split.values()]
        byte_sizes = [nbytes for _, nbytes in per_split.values()]
        out[dataset_id] = {
            "buckets": len(per_split),
            "bytes_total": sum(byte_sizes),
            "records_total": sum(record_counts),
            "bytes_max": max(byte_sizes),
            "max_over_median_bytes": max_over_median(byte_sizes),
            "max_over_median_records": max_over_median(record_counts),
            "gini_bytes": gini(byte_sizes),
            "gini_records": gini(record_counts),
        }
    return out
