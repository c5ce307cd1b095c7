"""Every view of task time is a view of the spans.

One real cluster run and one ``--mrs multiprocess`` run per way its
slaves start (all forked, or one exec'd beside them): the report's
``phases`` are the sums of its spans' durations, ``task_stats``
summarizes the spans' seconds, and ``task_count`` is the number of
tasks run — by construction, because nothing else holds time.
"""

import pytest

from repro.apps.pi.estimator import PiEstimator
from repro.core.job import Job
from repro.observability.tracing import PHASES
from repro.util.timing import summarize_seconds

FLAGS = ["--pi-samples", "4000", "--pi-tasks", "4"]

PLANES = ["cluster", "pool-fork", "pool-spawn"]


def run(plane):
    """``(report, {dataset id: task_stats})`` of one PiEstimator run."""
    if plane == "cluster":
        from repro.runtime.cluster import LocalCluster

        with LocalCluster(PiEstimator, FLAGS, n_slaves=2) as cluster:
            cluster.run()
            return collect(cluster.backend)
    from tests.runtime.test_multiprocess import start_multiprocess

    start_method = plane.partition("-")[2]
    program, backend = start_multiprocess(PiEstimator, FLAGS, start_method, 2)
    try:
        assert program.run(Job(backend, program)) in (None, 0)
        return collect(backend)
    finally:
        backend.close()


def collect(backend):
    report = backend.metrics()
    stats = {
        op["dataset_id"]: backend.task_stats(op["dataset_id"])
        for op in report["operations"]
    }
    return report, stats


@pytest.mark.integration
@pytest.mark.parametrize("plane", PLANES)
def test_report_views_are_sums_over_spans(plane):
    report, stats = run(plane)
    spans = report["spans"]
    completed = report["metrics"]["counters"]["tasks.completed"]

    assert report["summary"]["task_count"] == len(spans) == completed
    assert sum(op["tasks"] for op in report["operations"]) == completed

    assert {"fetch", "map", "reduce", "serialize", "transfer"} <= set(
        report["phases"]
    )
    assert list(report["phases"]) == [p for p in PHASES if p in report["phases"]]
    for phase, seconds in report["phases"].items():
        assert seconds == pytest.approx(
            sum(span["durations"].get(phase, 0.0) for span in spans)
        )

    for dataset_id, dataset_stats in stats.items():
        seconds = [
            span["seconds"] for span in spans
            if span["dataset_id"] == dataset_id
        ]
        assert dataset_stats == pytest.approx(summarize_seconds(seconds))
        assert dataset_stats["count"] > 0

    # Each span is the worker's execution re-anchored inside the
    # coordinator's own dispatch -> commit window.
    for span in spans:
        names = [mark["event"] for mark in span["events"]]
        assert names[0] == "queued" and names[-1] == "committed"
        assert names[1] == "started" and names[2] == "fetch"
        offsets = [mark["offset"] for mark in span["events"]]
        assert offsets == sorted(offsets)
        assert sum(span["durations"].values()) == pytest.approx(
            span["total_seconds"]
        )
