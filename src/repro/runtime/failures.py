"""Task-failure policy shared by the parallel runtimes.

The cluster master and the multiprocess worker pool apply the same
rules when a task attempt dies: retry it elsewhere until a per-task
budget is exhausted, then fail the owning dataset and transitively
everything that depends on it, so a ``Job.wait`` on any affected
dataset raises instead of hanging forever.  The strikes themselves live
with each dataset in the scheduler
(:meth:`~repro.runtime.scheduler.Scheduler.strike`), so they leave when
the dataset does.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: A task is retried on another worker/slave this many times before the
#: whole dataset is declared failed.
MAX_TASK_FAILURES = 3


def propagate_error(
    datasets: Dict[str, object], failed_id: str, message: Optional[str] = None
) -> List[str]:
    """Mark every unfinished (transitive) dependent of ``failed_id`` as
    failed; returns their ids.

    ``datasets`` maps dataset id -> dataset; dependents are found
    through ``input_id`` and ``blocking_ids``.  Caller holds whatever
    lock guards the dataset table.
    """
    failed: List[str] = []
    frontier = [failed_id]
    while frontier:
        current = frontier.pop()
        for dataset in datasets.values():
            if dataset.error or dataset.complete:
                continue
            deps = {getattr(dataset, "input_id", None)} | set(
                getattr(dataset, "blocking_ids", ())
            )
            if current in deps:
                dataset.error = message or f"input dataset {current} failed"
                failed.append(dataset.id)
                frontier.append(dataset.id)
    return failed


def release_dataset(datasets: Dict[str, object], released_id: str) -> List[str]:
    """Drop a released dataset from ``datasets`` and fail what can no
    longer finish: the dataset itself if it was unfinished, and every
    unfinished dataset that (transitively) reads it, with an error that
    names it.  Returns the failed readers' ids."""
    released = datasets.pop(released_id, None)
    if released is not None and not (released.complete or released.error):
        released.error = f"dataset {released_id} was released"
    return propagate_error(
        datasets, released_id, f"input dataset {released_id} was released"
    )
