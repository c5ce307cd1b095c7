"""summarize_seconds: the count/total/mean/max behind task_stats()."""

import pytest

from repro.util.timing import summarize_seconds


def test_empty_is_all_zero():
    assert summarize_seconds([]) == {
        "count": 0, "total": 0.0, "mean": 0.0, "max": 0.0,
    }


def test_count_total_mean_max():
    stats = summarize_seconds([0.5, 0.25, 0.75])
    assert stats["count"] == 3
    assert stats["total"] == pytest.approx(1.5)
    assert stats["mean"] == pytest.approx(0.5)
    assert stats["max"] == 0.75
