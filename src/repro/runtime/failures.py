"""Task-failure policy shared by the parallel runtimes.

The cluster master and the multiprocess worker pool apply the same
rules when a task attempt dies: retry it elsewhere until a per-task
budget is exhausted, then fail the owning dataset and transitively
everything that depends on it, so a ``Job.wait`` on any affected
dataset raises instead of hanging forever.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

TaskId = Tuple[str, int]

#: A task is retried on another worker/slave this many times before the
#: whole dataset is declared failed.
MAX_TASK_FAILURES = 3


class FailureTracker:
    """Per-task strike counter with a fixed budget.

    Not thread-safe on its own; callers mutate it under their backend
    lock, the same discipline the scheduler requires.
    """

    def __init__(self, budget: int = MAX_TASK_FAILURES):
        self.budget = budget
        self._counts: Dict[TaskId, int] = {}

    def record(self, task: TaskId) -> bool:
        """Count one strike; returns True when the budget is exhausted."""
        self._counts[task] = self._counts.get(task, 0) + 1
        return self._counts[task] >= self.budget

    def count(self, task: TaskId) -> int:
        return self._counts.get(task, 0)

    def forget_dataset(self, dataset_id: str) -> None:
        """Drop all strike state for one dataset (a long-lived server
        releases finished jobs; their counts must not accumulate)."""
        self._counts = {
            task: count
            for task, count in self._counts.items()
            if task[0] != dataset_id
        }


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
