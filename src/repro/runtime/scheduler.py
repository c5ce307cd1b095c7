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

Bucket-granular pipelining
--------------------------
Dependencies are tracked at *bucket* granularity, not just dataset
granularity.  Every completed task of a scheduled dataset records a
**source commit**: source ``i``'s output buckets are durable and their
URLs published.  When a producer has *identity routing* (its task ``i``
writes only split ``i`` — true for a reduce that re-partitions with the
same partition function and split count as its input, because a reduce
emits each group's key unchanged), a consumer task ``j`` reads exactly
the producer's source-``j`` bucket plus structurally empty ones.  Such
consumer tasks are queued as soon as the consumer is submitted and
become *eligible* the moment source ``j`` commits — even while sibling
producer tasks are still running.  Dense (all-to-all) edges keep the
classic dataset barrier.

Lineage recovery revokes commits with the same precision:
``reset_tasks`` removes exactly the reset sources' commits, so a
revoked producer re-blocks exactly its consumers' corresponding tasks
and nothing else.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

TaskId = Tuple[str, int]

#: Producer task ``i`` writes only split ``i`` (diagonal bucket grid);
#: consumer task ``j`` depends on source ``j`` alone.
ROUTING_IDENTITY = "identity"


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
        routing: Optional[str] = None,
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
        #: How this dataset's output buckets route to consumers:
        #: ``None`` (dense — any consumer task may read any source) or
        #: :data:`ROUTING_IDENTITY`.
        self.routing = routing
        self.task_state: Dict[int, str] = {}
        self.runnable = False
        #: Tasks were queued ahead of activation (pipelined consumer).
        self.prequeued = False
        #: Source indices whose output buckets are durable.  A source
        #: commits when its task completes and is revoked when lineage
        #: recovery resets that task.
        self.committed: Set[int] = set()

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

    def __init__(self, affinity: bool = True, pipeline: bool = True):
        self.affinity_enabled = affinity
        #: Bucket-granular pipelining: dispatch a consumer task as soon
        #: as its specific input buckets are committed, instead of
        #: waiting for the whole input dataset (``--mrs-pipeline``).
        self.pipeline_enabled = pipeline
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
        #: dataset id -> scheduled datasets that read it as input.
        self._consumers: Dict[str, List[str]] = {}
        #: Tasks dispatched before their input dataset completed.
        self.pipelined_dispatches = 0
        #: Fair-share rotation pointer: the job id served by the most
        #: recent ``next_task`` pick.
        self._last_job: Optional[str] = None
        #: Dispatch counts per job id (fairness introspection).
        self.job_dispatches: Dict[Optional[str], int] = {}
        #: Drain queues for the driving backend (under its lock):
        #: datasets that completed without any task running (ntasks=0)
        #: and tasks whose eligibility just flipped on a bucket commit.
        self._completed_datasets: List[str] = []
        self._unblocked: List[Dict[str, Any]] = []

    # -- dataset lifecycle ------------------------------------------------

    def add_dataset(self, sched: ScheduledDataset) -> None:
        if sched.id in self._datasets:
            raise ValueError(f"dataset {sched.id} already scheduled")
        self._datasets[sched.id] = sched
        self._order_rank[sched.id] = len(self._order)
        self._order.append(sched.id)
        self._consumers.setdefault(sched.input_id, []).append(sched.id)
        if not self._maybe_activate(sched) and self._pipelinable(sched):
            # The input is an identity-routing producer: queue every
            # task now so each becomes dispatchable the moment its own
            # source bucket commits.
            sched.prequeued = True
            for task_index in range(sched.ntasks):
                sched.task_state[task_index] = TaskState.PENDING
                self._insert_pending((sched.id, task_index))

    def _pipelinable(self, sched: ScheduledDataset) -> bool:
        if not self.pipeline_enabled:
            return False
        producer = self._datasets.get(sched.input_id)
        return producer is not None and producer.routing == ROUTING_IDENTITY

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
        if not sched.prequeued:
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

    def take_unblocked(self) -> List[Dict[str, Any]]:
        """Drain pipelined eligibility flips: each entry names the task
        that just became dispatchable and the bucket that enabled it."""
        drained = self._unblocked
        self._unblocked = []
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
        """
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
        """A task may run once the buckets it reads are durable.

        Dataset granularity: the input (and any blockers) are complete.
        Bucket granularity: with pipelining on and an identity-routing
        producer, task ``j`` needs only producer source ``j`` committed.
        Lineage recovery can *revoke* either level while consumers are
        already queued — dispatching one then would silently compute
        over partial input.
        """
        sched = self._datasets[task[0]]
        if not sched.blocking_ids <= self._complete_ids:
            return False
        if sched.input_id in self._complete_ids:
            return True
        if not self.pipeline_enabled:
            return False
        producer = self._datasets.get(sched.input_id)
        return (
            producer is not None
            and producer.routing == ROUTING_IDENTITY
            and task[1] in producer.committed
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
        if dataset_id in self._datasets and (
            self._datasets[dataset_id].input_id not in self._complete_ids
        ):
            self.pipelined_dispatches += 1
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
        # The producing task is known and its bucket bytes are durable
        # by the time the backend reports done: commit the source.
        sched.committed.add(task_index)
        if sched.complete:
            self.mark_input_complete(dataset_id)
            return True, True
        self._note_unblocked(sched, task_index)
        return True, False

    def _note_unblocked(self, sched: ScheduledDataset, source: int) -> None:
        """Record consumer tasks whose eligibility just flipped because
        ``sched`` committed ``source`` (the dataset itself is still
        incomplete, so this is a genuinely pipelined unblock)."""
        if not self.pipeline_enabled or sched.routing != ROUTING_IDENTITY:
            return
        for consumer_id in self._consumers.get(sched.id, ()):
            consumer = self._datasets[consumer_id]
            if consumer.task_state.get(source) != TaskState.PENDING:
                continue
            if self._task_eligible((consumer_id, source)):
                self._unblocked.append(
                    {
                        "task": (consumer_id, source),
                        "input_id": sched.id,
                        "source": source,
                        "split": source,
                    }
                )

    def reset_tasks(self, dataset_id: str, task_indices) -> int:
        """Return completed tasks to the pending queue (lineage
        re-execution: their output data was lost with a dead slave).

        Tasks currently assigned are left alone — if they were assigned
        to the dead slave, :meth:`remove_slave` already requeued them.
        Revokes the reset sources' bucket commits, so pipelined
        consumers of exactly those sources re-block until the data is
        recomputed.  Returns the number of tasks reset.
        """
        sched = self._datasets.get(dataset_id)
        if sched is None:
            return 0
        count = 0
        for task_index in task_indices:
            # The bucket is gone whether or not the task re-runs here.
            sched.committed.discard(task_index)
            if sched.task_state.get(task_index) == TaskState.DONE:
                sched.task_state[task_index] = TaskState.PENDING
                self._insert_pending((dataset_id, task_index))
                count += 1
        return count

    def cancel_dataset(self, dataset_id: str) -> int:
        """Drop every pending task of a permanently failed dataset.

        Once a dataset is marked failed, its remaining queued tasks can
        only waste workers (and, for crash-inducing tasks, kill them
        again); remove them from the pending queue.  Tasks already
        assigned are left to finish or fail on their own.  Returns the
        number of tasks dropped.
        """
        before = len(self._pending)
        self._pending = [task for task in self._pending if task[0] != dataset_id]
        return before - len(self._pending)

    def forget_dataset(self, dataset_id: str) -> None:
        """Drop every trace of a dataset (service mode: a finished
        job's datasets are released so a long-lived scheduler's state
        does not grow with every job ever run).  Any still-assigned
        task is abandoned — a late completion report for it is then
        rejected as stale by :meth:`task_done`.
        """
        sched = self._datasets.pop(dataset_id, None)
        if sched is None:
            return
        # _order keeps its other entries' ranks stable: the rank map is
        # per-id, not positional, so removal never renumbers.
        if dataset_id in self._order:
            self._order.remove(dataset_id)
        self._order_rank.pop(dataset_id, None)
        self._pending = [t for t in self._pending if t[0] != dataset_id]
        for task in [t for t in self._assigned if t[0] == dataset_id]:
            slave = self._assigned.pop(task)
            self._slave_tasks.get(slave, set()).discard(task)
        self._complete_ids.discard(dataset_id)
        self._consumers.pop(dataset_id, None)
        consumers = self._consumers.get(sched.input_id)
        if consumers and dataset_id in consumers:
            consumers.remove(dataset_id)
        # Affinity hints keyed by this dataset's group are only shared
        # within its own job; releasing the whole job drops them all.
        self._affinity = {
            key: slave
            for key, slave in self._affinity.items()
            if key[0] != sched.affinity_group
        }

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
