"""Task scheduler with iteration affinity (section IV-A).

"The task scheduler in Mrs also attempts to assign corresponding tasks
to the same processor from one iteration to the next, which reduces
communication between nodes and latency between iterations."

The scheduler is a pure data structure (no I/O, no threads) so its
policies are unit-testable: the master drives it under its own lock.

Model
-----
* A *dataset* becomes **runnable** when its input dataset (and any
  extra blockers) are complete; it then expands into one task per
  input split.
* A *task* is ``(dataset_id, task_index)``; it is pending, assigned to
  a slave, or done.
* Each :class:`ScheduledDataset` keeps its own queue, done count,
  strikes and affinity index, and a sequence number from
  :meth:`Scheduler.add_dataset` that is never reused: the FIFO order.
  The scheduler walks only the datasets still waiting for their inputs
  when one completes, and only those with queued tasks per dispatch,
  so neither cost grows with the finished datasets a job keeps.
* Affinity: when a task completes on a slave, the scheduler remembers
  ``(affinity_group, task_index) -> slave``.  Future tasks with the
  same key prefer that slave.  Iterative programs get this for free
  because every iteration's datasets share an affinity group.
* One dependency rule: a queued task may run only while its input
  dataset and blockers are complete.  Lineage recovery revokes a
  dataset's completeness (:meth:`Scheduler.unmark_complete`), which
  holds back its consumers' queued tasks until the lost tasks re-run.
* A cancelled dataset (failed or released) never has a task queued
  again, whichever path would requeue it.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, insort
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

TaskId = Tuple[str, int]


class TaskState:
    PENDING = "pending"
    ASSIGNED = "assigned"
    DONE = "done"


class ScheduledDataset:
    """Scheduler-side bookkeeping for one computed dataset."""

    def __init__(
        self,
        dataset_id: str,
        ntasks: int,
        affinity_group: str,
        input_id: str,
        blocking_ids: Sequence[str] = (),
        job_id: Optional[str] = None,
    ):
        self.id = dataset_id
        self.ntasks = ntasks
        self.affinity_group = affinity_group
        self.input_id = input_id
        self.blocking_ids = set(blocking_ids)
        #: Job this dataset belongs to (service mode).  ``next_task``
        #: round-robins across distinct job ids so one large job cannot
        #: starve the others; ``None`` (the single-job case) is its own
        #: bucket and degenerates to the classic FIFO behaviour.
        self.job_id = job_id
        self.task_state: Dict[int, str] = {}
        #: Queued task indices, ascending: a requeued task rejoins at
        #: its index, ahead of the dataset's untouched work.
        self.pending: List[int] = []
        self.done_count = 0
        #: Failed attempts per task index.
        self.strikes: Dict[int, int] = {}
        #: Slave -> heap of queued indices whose affinity entry named
        #: that slave when they were noted; re-checked when picked.
        self.affine: Dict[int, List[int]] = {}
        self.runnable = False
        #: Failed or released: no task of this dataset is queued again.
        self.cancelled = False
        #: FIFO position, set by :meth:`Scheduler.add_dataset`.
        self.seq = 0

    @property
    def complete(self) -> bool:
        return self.runnable and self.done_count == self.ntasks


class Scheduler:
    """Affinity-aware FIFO task scheduler."""

    def __init__(self, affinity: bool = True):
        self.affinity_enabled = affinity
        self._datasets: Dict[str, ScheduledDataset] = {}
        #: Datasets whose inputs are not all complete yet, by id.
        self._waiting: Dict[str, ScheduledDataset] = {}
        #: Datasets with queued tasks, by sequence number — FIFO across
        #: datasets keeps early operations flowing first.
        self._queued: Dict[int, ScheduledDataset] = {}
        self._seq = itertools.count(1)
        self._assigned: Dict[TaskId, int] = {}
        self._slave_tasks: Dict[int, Set[TaskId]] = {}
        self._affinity: Dict[Tuple[str, int], int] = {}
        #: Completed input datasets (including non-computed ones the
        #: master marks complete directly).
        self._complete_ids: Set[str] = set()
        #: Fair-share rotation pointer: the job id served by the most
        #: recent ``next_task`` pick.
        self._last_job: Optional[str] = None
        #: Dispatch counts per job id (fairness introspection).
        self.job_dispatches: Dict[Optional[str], int] = {}
        #: Datasets that completed without any task running (ntasks=0),
        #: drained by the driving backend under its lock.
        self._completed_datasets: List[str] = []

    # -- dataset lifecycle ------------------------------------------------

    def add_dataset(self, sched: ScheduledDataset) -> None:
        if sched.id in self._datasets:
            raise ValueError(f"dataset {sched.id} already scheduled")
        sched.seq = next(self._seq)
        self._datasets[sched.id] = sched
        self._waiting[sched.id] = sched
        self._maybe_activate(sched)

    def mark_input_complete(self, dataset_id: str) -> None:
        """Record that ``dataset_id`` is complete; activate dependents."""
        self._complete_ids.add(dataset_id)
        for sched in list(self._waiting.values()):
            self._maybe_activate(sched)

    def _maybe_activate(self, sched: ScheduledDataset) -> None:
        deps = {sched.input_id} | sched.blocking_ids
        if sched.runnable or not deps <= self._complete_ids:
            return
        sched.runnable = True
        del self._waiting[sched.id]
        for task_index in range(sched.ntasks):
            self._queue(sched, task_index)
        if sched.ntasks == 0:
            # A zero-task dataset is complete the instant it activates;
            # nothing will ever call task_done for it, so completion
            # must propagate here or its dependents stall forever.
            self._completed_datasets.append(sched.id)
            self.mark_input_complete(sched.id)

    def is_complete(self, dataset_id: str) -> bool:
        return dataset_id in self._complete_ids

    def unmark_complete(self, dataset_id: str) -> None:
        """Revoke a dataset's completeness (lineage recovery): its
        consumers' pending tasks become ineligible until the data is
        re-executed and the dataset completes again."""
        self._complete_ids.discard(dataset_id)

    def take_completed_datasets(self) -> List[str]:
        """Drain datasets that completed without running any task
        (``ntasks == 0``) so the backend can mark them complete and
        wake waiters."""
        drained = self._completed_datasets
        self._completed_datasets = []
        return drained

    # -- slaves ------------------------------------------------------------

    def add_slave(self, slave_id: int) -> None:
        self._slave_tasks.setdefault(slave_id, set())

    def remove_slave(self, slave_id: int) -> List[TaskId]:
        """Drop a slave; its assigned tasks return to pending.

        Returns the reassigned task ids.
        """
        # Affinity entries pointing at the dead slave are stale.
        self._affinity = {
            key: slave
            for key, slave in self._affinity.items()
            if slave != slave_id
        }
        tasks = sorted(self._slave_tasks.pop(slave_id, set()))
        for task in tasks:
            self._assigned.pop(task, None)
            dataset_id, task_index = task
            sched = self._datasets.get(dataset_id)
            if sched is not None and sched.task_state.get(task_index) == (
                TaskState.ASSIGNED
            ):
                self._queue(sched, task_index)
        return tasks

    # -- assignment ----------------------------------------------------------

    def _queue(self, sched: ScheduledDataset, task_index: int) -> None:
        """Mark a task pending and queue it at its index.  A cancelled
        dataset's task is not queued: every requeue path ends here, and
        a failure or release is permanent."""
        sched.task_state[task_index] = TaskState.PENDING
        if not sched.cancelled:
            insort(sched.pending, task_index)
            self._queued[sched.seq] = sched
            slave = self._affinity.get((sched.affinity_group, task_index))
            if slave is not None:
                heapq.heappush(sched.affine.setdefault(slave, []), task_index)

    def _task_eligible(self, task: TaskId) -> bool:
        """A queued task may run while its input dataset and blockers
        are complete.  Lineage recovery can revoke that after the task
        was queued — dispatching it then would silently compute over
        partial input.  ``next_task`` asks once per dataset."""
        sched = self._datasets[task[0]]
        return (
            sched.input_id in self._complete_ids
            and sched.blocking_ids <= self._complete_ids
        )

    def _affinity_hit(
        self, sched: ScheduledDataset, slave_id: int
    ) -> Optional[int]:
        """The lowest queued index of ``sched`` whose affinity entry
        names ``slave_id`` now; stale notes are dropped on the way."""
        heap = sched.affine.get(slave_id)
        while heap:
            task_index = heap[0]
            if sched.task_state[task_index] == TaskState.PENDING and (
                self._affinity.get((sched.affinity_group, task_index))
                == slave_id
            ):
                return task_index
            heapq.heappop(heap)
        return None

    def next_task(self, slave_id: int) -> Optional[TaskId]:
        """Pick a pending *eligible* task for ``slave_id``.

        Two policies compose here:

        * **Fair share across jobs** — one walk over the live datasets,
          in FIFO order, collects each job's eligible datasets; the job
          to serve is then chosen round-robin after the last-served
          job.  With a single job (all ``job_id`` equal) this is the
          classic FIFO order.
        * **Affinity within the chosen job** — the job's first
          affinity hit wins over plain FIFO position.
        """
        if slave_id not in self._slave_tasks:
            raise KeyError(f"unknown slave {slave_id}")
        eligible: Dict[Optional[str], List[ScheduledDataset]] = {}
        for seq in sorted(self._queued):
            sched = self._queued[seq]
            if self._task_eligible((sched.id, sched.pending[0])):
                eligible.setdefault(sched.job_id, []).append(sched)
        if not eligible:
            return None
        job = self._pick_job(eligible)
        sched = eligible[job][0]
        task_index = sched.pending[0]
        for candidate in eligible[job] if self.affinity_enabled else ():
            hit = self._affinity_hit(candidate, slave_id)
            if hit is not None:
                sched, task_index = candidate, hit
                break
        del sched.pending[bisect_left(sched.pending, task_index)]
        if not sched.pending:
            del self._queued[sched.seq]
        task = (sched.id, task_index)
        self._last_job = job
        self.job_dispatches[job] = self.job_dispatches.get(job, 0) + 1
        sched.task_state[task_index] = TaskState.ASSIGNED
        self._assigned[task] = slave_id
        self._slave_tasks[slave_id].add(task)
        return task

    def _pick_job(self, candidates: Dict[Optional[str], Any]) -> Optional[str]:
        """Round-robin job choice: the first candidate strictly after
        the last-served job in a deterministic cyclic order (``None``
        sorts first)."""
        jobs = sorted(candidates, key=lambda j: (j is not None, j or ""))
        if len(jobs) == 1 or self._last_job is None:
            return jobs[0]
        last_key = (self._last_job is not None, self._last_job or "")
        for job in jobs:
            if (job is not None, job or "") > last_key:
                return job
        return jobs[0]

    def has_pending(self) -> bool:
        return bool(self._queued)

    def is_pending(self, task: TaskId) -> bool:
        sched = self._datasets.get(task[0])
        return (
            sched is not None
            and not sched.cancelled
            and sched.task_state.get(task[1]) == TaskState.PENDING
        )

    # -- completion ------------------------------------------------------------

    def task_done(self, slave_id: int, task: TaskId) -> Tuple[bool, bool]:
        """Record task completion.

        Returns ``(accepted, dataset_complete)``.  Stale reports (task
        already done or reassigned elsewhere) are rejected — a slave
        that was presumed dead may still deliver a result after its
        tasks were given away.
        """
        dataset_id, task_index = task
        sched = self._datasets.get(dataset_id)
        if sched is None:
            return False, False
        if self._assigned.get(task) != slave_id:
            return False, False
        if sched.task_state.get(task_index) != TaskState.ASSIGNED:
            return False, False
        sched.task_state[task_index] = TaskState.DONE
        sched.done_count += 1
        del self._assigned[task]
        self._slave_tasks[slave_id].discard(task)
        key = (sched.affinity_group, task_index)
        if self.affinity_enabled and self._affinity.get(key) != slave_id:
            self._affinity[key] = slave_id
            # Same-group tasks already queued now prefer this slave.
            for other in self._queued.values():
                if (
                    other.affinity_group == key[0]
                    and other.task_state.get(task_index) == TaskState.PENDING
                ):
                    heapq.heappush(
                        other.affine.setdefault(slave_id, []), task_index
                    )
        if sched.complete:
            self.mark_input_complete(dataset_id)
            return True, True
        return True, False

    def reset_tasks(self, dataset_id: str, task_indices) -> int:
        """Return completed tasks to the pending queue (lineage
        re-execution: their output data was lost with a dead slave).

        Tasks currently assigned are left alone — if they were assigned
        to the dead slave, :meth:`remove_slave` already requeued them.
        The caller revokes the dataset's completeness
        (:meth:`unmark_complete`) so its consumers wait for the re-run.
        Returns the number of tasks reset.
        """
        sched = self._datasets.get(dataset_id)
        if sched is None:
            return 0
        count = 0
        for task_index in task_indices:
            if sched.task_state.get(task_index) == TaskState.DONE:
                sched.done_count -= 1
                self._queue(sched, task_index)
                count += 1
        return count

    def cancel_dataset(self, dataset_id: str) -> int:
        """Drop every pending task of a failed or released dataset,
        for good.

        Its queued tasks can only waste workers (and, for crash-inducing
        tasks, kill them again).  Tasks already assigned are left to
        finish or fail on their own; a failed one is not requeued (see
        :meth:`_queue`).  Returns the number of tasks dropped.
        """
        sched = self._datasets.get(dataset_id)
        if sched is None:
            return 0
        sched.cancelled = True
        dropped = len(sched.pending)
        sched.pending = []
        sched.affine = {}
        self._queued.pop(sched.seq, None)
        return dropped

    def forget_dataset(self, dataset_id: str) -> None:
        """Drop every trace of a released dataset, so the scheduler's
        state does not grow with every dataset ever run.  Any
        still-assigned task is abandoned — a late completion report for
        it is then rejected as stale by :meth:`task_done`.  Affinity
        entries stay: later iterations share the dataset's group.
        """
        self._complete_ids.discard(dataset_id)
        sched = self._datasets.pop(dataset_id, None)
        if sched is None:
            return
        self._waiting.pop(dataset_id, None)
        self._queued.pop(sched.seq, None)
        for task in [t for t in self._assigned if t[0] == dataset_id]:
            slave = self._assigned.pop(task)
            self._slave_tasks.get(slave, set()).discard(task)

    def forget_job(self, job_id: str) -> None:
        """Drop a released job's affinity entries (its groups are
        namespaced ``<job_id>.``) and its dispatch count."""
        prefix = job_id + "."
        self._affinity = {
            key: slave
            for key, slave in self._affinity.items()
            if not key[0].startswith(prefix)
        }
        self.job_dispatches.pop(job_id, None)

    def task_failed(self, slave_id: int, task: TaskId) -> None:
        """Return a failed task to the pending queue (retried elsewhere)."""
        dataset_id, task_index = task
        sched = self._datasets.get(dataset_id)
        if sched is None:
            return
        if self._assigned.get(task) != slave_id:
            return
        del self._assigned[task]
        self._slave_tasks[slave_id].discard(task)
        # Affinity must not steer the retry straight back to the slave
        # the task just failed on.
        key = (sched.affinity_group, task_index)
        if self._affinity.get(key) == slave_id:
            del self._affinity[key]
        self._queue(sched, task_index)

    def strikes(self, task: TaskId, add: int = 0) -> int:
        """``task``'s failed attempts after charging ``add`` more (0 for
        a released dataset's task: its strikes left with it)."""
        sched = self._datasets.get(task[0])
        if sched is None:
            return 0
        count = sched.strikes.get(task[1], 0) + add
        if add:
            sched.strikes[task[1]] = count
        return count

    # -- introspection ------------------------------------------------------------

    def progress(self, dataset_id: str) -> float:
        sched = self._datasets.get(dataset_id)
        if sched is None:
            return 1.0 if dataset_id in self._complete_ids else 0.0
        if sched.ntasks == 0:
            return 1.0 if sched.runnable else 0.0
        return sched.done_count / sched.ntasks

    def affinity_slave(self, group: str, task_index: int) -> Optional[int]:
        return self._affinity.get((group, task_index))

    def outstanding(self) -> int:
        """Tasks pending or assigned across all runnable datasets."""
        return len(self._assigned) + sum(
            len(sched.pending) for sched in self._queued.values()
        )
