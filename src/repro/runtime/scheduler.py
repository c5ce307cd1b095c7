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
        self.runnable = False
        #: Failed or released: no task of this dataset is queued again.
        self.cancelled = False

    @property
    def done_count(self) -> int:
        return sum(
            1 for state in self.task_state.values() if state == TaskState.DONE
        )

    @property
    def complete(self) -> bool:
        return self.runnable and self.done_count == self.ntasks


class Scheduler:
    """Affinity-aware FIFO task scheduler."""

    def __init__(self, affinity: bool = True):
        self.affinity_enabled = affinity
        self._datasets: Dict[str, ScheduledDataset] = {}
        #: Insertion order of datasets — FIFO across datasets keeps
        #: early operations flowing first.
        self._order: List[str] = []
        self._order_rank: Dict[str, int] = {}
        self._pending: List[TaskId] = []
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
        self._datasets[sched.id] = sched
        self._order_rank[sched.id] = len(self._order)
        self._order.append(sched.id)
        self._maybe_activate(sched)

    def mark_input_complete(self, dataset_id: str) -> List[str]:
        """Record that ``dataset_id`` is complete; activate dependents.

        Returns the ids of datasets that just became runnable.
        """
        self._complete_ids.add(dataset_id)
        activated = []
        for ds_id in list(self._order):
            sched = self._datasets[ds_id]
            if not sched.runnable and self._maybe_activate(sched):
                activated.append(ds_id)
        return activated

    def _maybe_activate(self, sched: ScheduledDataset) -> bool:
        if sched.runnable:
            return False
        deps = {sched.input_id} | sched.blocking_ids
        if not deps <= self._complete_ids:
            return False
        sched.runnable = True
        for task_index in range(sched.ntasks):
            sched.task_state[task_index] = TaskState.PENDING
            self._insert_pending((sched.id, task_index))
        if sched.ntasks == 0:
            # A zero-task dataset is complete the instant it activates;
            # nothing will ever call task_done for it, so completion
            # must propagate here or its dependents stall forever.
            self._completed_datasets.append(sched.id)
            self.mark_input_complete(sched.id)
        return True

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
        tasks = sorted(self._slave_tasks.pop(slave_id, set()))
        for task in tasks:
            self._assigned.pop(task, None)
            dataset_id, task_index = task
            sched = self._datasets.get(dataset_id)
            if sched is not None and sched.task_state.get(task_index) == (
                TaskState.ASSIGNED
            ):
                sched.task_state[task_index] = TaskState.PENDING
                self._insert_pending(task)
        # Affinity entries pointing at the dead slave are stale.
        self._affinity = {
            key: slave
            for key, slave in self._affinity.items()
            if slave != slave_id
        }
        return tasks

    # -- assignment ----------------------------------------------------------

    def _insert_pending(self, task: TaskId) -> None:
        """Queue a task at its FIFO position.

        ``_pending`` is kept sorted by (dataset insertion order, task
        index) so requeued tasks — slave loss, failure retry, lineage
        re-execution — rejoin *ahead* of later iterations' work instead
        of starving the dependency frontier at the tail of the queue.
        A cancelled dataset's task is refused: every requeue path ends
        here, and a failure or release is permanent.
        """
        if self._datasets[task[0]].cancelled:
            return
        rank = (self._order_rank.get(task[0], len(self._order)), task[1])
        lo, hi = 0, len(self._pending)
        while lo < hi:
            mid = (lo + hi) // 2
            queued = self._pending[mid]
            queued_rank = (
                self._order_rank.get(queued[0], len(self._order)),
                queued[1],
            )
            if queued_rank <= rank:
                lo = mid + 1
            else:
                hi = mid
        self._pending.insert(lo, task)

    def _task_eligible(self, task: TaskId) -> bool:
        """A queued task may run while its input dataset and blockers
        are complete.  Lineage recovery can revoke that after the task
        was queued — dispatching it then would silently compute over
        partial input."""
        sched = self._datasets[task[0]]
        return (
            sched.input_id in self._complete_ids
            and sched.blocking_ids <= self._complete_ids
        )

    def next_task(self, slave_id: int) -> Optional[TaskId]:
        """Pick a pending *eligible* task for ``slave_id``.

        Two policies compose here:

        * **Fair share across jobs** — one scan collects, per job id,
          the first eligible task (FIFO within the job) and the first
          affinity-matching eligible task; the job to serve is then
          chosen round-robin after the last-served job.  With a single
          job (all ``job_id`` equal) this is exactly the classic scan.
        * **Affinity within the chosen job** — the affinity hit wins
          over plain FIFO position, as before.
        """
        if slave_id not in self._slave_tasks:
            raise KeyError(f"unknown slave {slave_id}")
        first_eligible: Dict[Optional[str], int] = {}
        affinity_hits: Dict[Optional[str], int] = {}
        for index, (dataset_id, task_index) in enumerate(self._pending):
            sched = self._datasets[dataset_id]
            job = sched.job_id
            if job in first_eligible and (
                not self.affinity_enabled or job in affinity_hits
            ):
                continue  # nothing more to learn about this job
            if not self._task_eligible((dataset_id, task_index)):
                continue
            if job not in first_eligible:
                first_eligible[job] = index
            if self.affinity_enabled and job not in affinity_hits:
                key = (sched.affinity_group, task_index)
                if self._affinity.get(key) == slave_id:
                    affinity_hits[job] = index
        if not first_eligible:
            return None
        job = self._pick_job(first_eligible)
        choice_index = affinity_hits.get(job, first_eligible[job])
        task = self._pending.pop(choice_index)
        dataset_id, task_index = task
        self._last_job = job
        self.job_dispatches[job] = self.job_dispatches.get(job, 0) + 1
        self._datasets[dataset_id].task_state[task_index] = TaskState.ASSIGNED
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
        return bool(self._pending)

    def is_pending(self, task: TaskId) -> bool:
        return task in self._pending

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
        del self._assigned[task]
        self._slave_tasks[slave_id].discard(task)
        if self.affinity_enabled:
            self._affinity[(sched.affinity_group, task_index)] = slave_id
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
                sched.task_state[task_index] = TaskState.PENDING
                self._insert_pending((dataset_id, task_index))
                count += 1
        return count

    def cancel_dataset(self, dataset_id: str) -> int:
        """Drop every pending task of a failed or released dataset,
        for good.

        Its queued tasks can only waste workers (and, for crash-inducing
        tasks, kill them again).  Tasks already assigned are left to
        finish or fail on their own; a failed one is not requeued (see
        :meth:`_insert_pending`).  Returns the number of tasks dropped.
        """
        sched = self._datasets.get(dataset_id)
        if sched is not None:
            sched.cancelled = True
        before = len(self._pending)
        self._pending = [task for task in self._pending if task[0] != dataset_id]
        return before - len(self._pending)

    def forget_dataset(self, dataset_id: str) -> None:
        """Drop every trace of a released dataset, so the scheduler's
        state does not grow with every dataset ever run.  Any
        still-assigned task is abandoned — a late completion report for
        it is then rejected as stale by :meth:`task_done`.  Affinity
        entries stay: later iterations share the dataset's group.
        """
        self._complete_ids.discard(dataset_id)
        if self._datasets.pop(dataset_id, None) is None:
            return
        # Ranks are per id, not positional: removal never renumbers.
        self._order.remove(dataset_id)
        self._order_rank.pop(dataset_id, None)
        self._pending = [t for t in self._pending if t[0] != dataset_id]
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
        sched.task_state[task_index] = TaskState.PENDING
        self._insert_pending(task)
        # Affinity must not steer the retry straight back to the slave
        # the task just failed on.
        key = (sched.affinity_group, task_index)
        if self._affinity.get(key) == slave_id:
            del self._affinity[key]

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
        return len(self._pending) + len(self._assigned)
