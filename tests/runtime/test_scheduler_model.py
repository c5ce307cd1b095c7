"""Model-based property testing of the scheduler.

Hypothesis drives random interleavings of slave arrivals/failures,
task assignment, completions, stale reports and cancellations; after
every step the scheduler must satisfy its structural invariants, and
eventually every dataset that was not cancelled must complete as long
as at least one slave survives.  A differential test runs the same
random schedules through the scheduler and through a reference that
scans one global queue, the design the per-dataset queues replaced,
and requires the same task at every dispatch.
"""

import itertools
from bisect import insort

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.runtime.scheduler import ScheduledDataset, Scheduler, TaskState


class SchedulerMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.scheduler = Scheduler()
        self.scheduler.mark_input_complete("input")
        self.next_slave = 0
        self.next_dataset = 0
        self.live_slaves = set()
        self.assigned = {}  # task -> slave
        self.done = set()
        self.all_tasks = set()
        self.cancelled = set()  # dataset ids

    # -- rules -------------------------------------------------------------

    @rule()
    def add_slave(self):
        slave = self.next_slave
        self.next_slave += 1
        self.scheduler.add_slave(slave)
        self.live_slaves.add(slave)

    @rule(ntasks=st.integers(min_value=1, max_value=4))
    def add_dataset(self, ntasks):
        ds_id = f"d{self.next_dataset}"
        self.next_dataset += 1
        self.scheduler.add_dataset(
            ScheduledDataset(
                ds_id, ntasks=ntasks, affinity_group="g", input_id="input"
            )
        )
        self.all_tasks.update((ds_id, i) for i in range(ntasks))

    @rule(data=st.data())
    def assign(self, data):
        if not self.live_slaves:
            return
        slave = data.draw(st.sampled_from(sorted(self.live_slaves)))
        task = self.scheduler.next_task(slave)
        if task is not None:
            assert task not in self.assigned, "task double-assigned"
            assert task not in self.done, "completed task re-assigned"
            assert task[0] not in self.cancelled, "cancelled task assigned"
            self.assigned[task] = slave

    @rule(data=st.data())
    def complete(self, data):
        if not self.assigned:
            return
        task = data.draw(st.sampled_from(sorted(self.assigned)))
        slave = self.assigned.pop(task)
        accepted, _ = self.scheduler.task_done(slave, task)
        if slave in self.live_slaves:
            assert accepted, "live slave's completion rejected"
            self.done.add(task)
        else:
            assert not accepted, "dead slave's completion accepted"

    @rule(data=st.data())
    def fail_task(self, data):
        if not self.assigned:
            return
        task = data.draw(st.sampled_from(sorted(self.assigned)))
        slave = self.assigned.pop(task)
        self.scheduler.task_failed(slave, task)

    @rule(data=st.data())
    def stale_done_from_wrong_slave(self, data):
        """Completion reports from the wrong slave are rejected."""
        if not self.assigned or not self.live_slaves:
            return
        task = data.draw(st.sampled_from(sorted(self.assigned)))
        owner = self.assigned[task]
        impostors = self.live_slaves - {owner}
        if not impostors:
            return
        impostor = data.draw(st.sampled_from(sorted(impostors)))
        accepted, _ = self.scheduler.task_done(impostor, task)
        assert not accepted

    @rule(data=st.data())
    def lose_slave(self, data):
        if len(self.live_slaves) <= 1:
            return  # keep at least one slave so progress stays possible
        slave = data.draw(st.sampled_from(sorted(self.live_slaves)))
        self.live_slaves.discard(slave)
        reassigned = self.scheduler.remove_slave(slave)
        for task in reassigned:
            self.assigned.pop(task, None)

    @rule(data=st.data())
    def cancel(self, data):
        """A dataset fails or is released.  One with a task in flight is
        picked when there is one: that task's failure, or its slave's
        loss, is what could queue it again."""
        in_flight = {task[0] for task in self.assigned} - self.cancelled
        live = in_flight or (
            {task[0] for task in self.all_tasks} - self.cancelled
        )
        if not live:
            return
        ds_id = data.draw(st.sampled_from(sorted(live)))
        self.scheduler.cancel_dataset(ds_id)
        self.cancelled.add(ds_id)

    @rule()
    def drain(self):
        """Run everything to completion on the surviving slaves."""
        if not self.live_slaves:
            return
        slaves = sorted(self.live_slaves)
        for _ in range(10_000):
            progress = False
            for slave in slaves:
                task = self.scheduler.next_task(slave)
                if task is not None:
                    assert task[0] not in self.cancelled
                    accepted, _ = self.scheduler.task_done(slave, task)
                    assert accepted
                    self.done.add(task)
                    self.assigned.pop(task, None)
                    progress = True
            if not progress:
                break
        # After a full drain, every task of a dataset that was not
        # cancelled is either done or still held by a live slave the
        # model never completed (in-flight).  No task may be lost.
        def live(tasks):
            return {task for task in tasks if task[0] not in self.cancelled}

        assert live(self.all_tasks) - self.done == live(self.assigned)

    # -- invariants -------------------------------------------------------------

    @invariant()
    def outstanding_never_negative(self):
        if hasattr(self, "scheduler"):
            assert self.scheduler.outstanding() >= 0

    @invariant()
    def no_task_both_done_and_assigned(self):
        if hasattr(self, "done"):
            assert not (self.done & set(self.assigned))

    @invariant()
    def no_cancelled_task_pending(self):
        if hasattr(self, "cancelled"):
            assert not [
                ds_id
                for ds_id, sched in self.scheduler._datasets.items()
                if sched.pending and ds_id in self.cancelled
            ]


SchedulerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestSchedulerModel = SchedulerMachine.TestCase


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=20),
)
@settings(max_examples=50, deadline=None)
def test_full_drain_completes_everything(n_slaves, n_tasks):
    """With live slaves and no failures, every task gets exactly one
    completion and the dataset finishes."""
    scheduler = Scheduler()
    for slave in range(n_slaves):
        scheduler.add_slave(slave)
    scheduler.mark_input_complete("input")
    scheduler.add_dataset(
        ScheduledDataset("d", ntasks=n_tasks, affinity_group="g",
                         input_id="input")
    )
    completions = 0
    while scheduler.outstanding():
        for slave in range(n_slaves):
            task = scheduler.next_task(slave)
            if task is not None:
                accepted, _ = scheduler.task_done(slave, task)
                assert accepted
                completions += 1
    assert completions == n_tasks
    assert scheduler.progress("d") == 1.0
    assert scheduler.is_complete("d")


# -- the dependency rule: input complete -----------------------------------


def _chain(n):
    """A producer whose tasks have all been dispatched, plus a consumer
    of it with the same task count."""
    scheduler = Scheduler()
    scheduler.add_slave(0)
    scheduler.mark_input_complete("input")
    scheduler.add_dataset(
        ScheduledDataset("red", ntasks=n, affinity_group="red", input_id="input")
    )
    scheduler.add_dataset(
        ScheduledDataset("map", ntasks=n, affinity_group="map", input_id="red")
    )
    for i in range(n):
        assert scheduler.next_task(0) == ("red", i)
    return scheduler


def _eligible_consumers(scheduler, n):
    return {i for i in range(n) if scheduler._task_eligible(("map", i))}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_revocation_blocks_consumers_until_revoked_sources_rerun(data):
    """Lineage recovery for a random subset of producer sources: every
    consumer task stays blocked until every revoked source has re-run,
    whatever order the re-runs finish in, and only those sources re-run."""
    n = data.draw(st.integers(min_value=2, max_value=5), label="ntasks")
    scheduler = _chain(n)
    for i in range(n):
        scheduler.task_done(0, ("red", i))
    assert _eligible_consumers(scheduler, n) == set(range(n))
    revoked = data.draw(
        st.sets(st.sampled_from(range(n)), min_size=1), label="revoked"
    )
    scheduler.unmark_complete("red")
    assert scheduler.reset_tasks("red", sorted(revoked)) == len(revoked)
    assert _eligible_consumers(scheduler, n) == set()
    # The requeued producer tasks are the only dispatchable work.
    rerun = [scheduler.next_task(0) for _ in revoked]
    assert rerun == [("red", i) for i in sorted(revoked)]
    assert scheduler.next_task(0) is None
    order = data.draw(st.permutations(rerun), label="re-run order")
    for k, task in enumerate(order):
        assert _eligible_consumers(scheduler, n) == set()
        accepted, complete = scheduler.task_done(0, task)
        assert accepted and complete == (k == len(order) - 1)
    assert scheduler.is_complete("red")
    assert _eligible_consumers(scheduler, n) == set(range(n))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_dag_dispatches_match_reference_model(data):
    """Differential check against an independent bookkeeping model:
    over a random DAG (including zero-task datasets) with a random
    execution order, a pending task is dispatchable iff the model says
    its input dataset is complete — and the whole DAG always drains to
    completion."""
    scheduler = Scheduler()
    scheduler.add_slave(0)
    scheduler.mark_input_complete("input")
    complete_ids = {"input"}
    shapes = {}  # ds_id -> (input_id, ntasks)
    n_datasets = data.draw(st.integers(min_value=1, max_value=5), label="n")
    for k in range(n_datasets):
        ds_id = f"d{k}"
        input_id = data.draw(
            st.sampled_from(["input"] + [f"d{j}" for j in range(k)]),
            label=f"input of {ds_id}",
        )
        ntasks = data.draw(
            st.integers(min_value=0, max_value=3), label=f"ntasks {ds_id}"
        )
        scheduler.add_dataset(
            ScheduledDataset(
                ds_id, ntasks=ntasks, affinity_group=ds_id, input_id=input_id
            )
        )
        shapes[ds_id] = (input_id, ntasks)
        complete_ids.update(scheduler.take_completed_datasets())

    def model_eligible(ds_id):
        return shapes[ds_id][0] in complete_ids

    def check_pending_against_model():
        for ds_id, (_, ntasks) in shapes.items():
            sched = scheduler._datasets[ds_id]
            for idx in range(ntasks):
                if sched.task_state.get(idx) == TaskState.PENDING:
                    assert scheduler._task_eligible(
                        (ds_id, idx)
                    ) == model_eligible(ds_id)

    def run_one():
        task = scheduler.next_task(0)
        if task is None:
            return False
        assert model_eligible(task[0]), f"{task} dispatched too early"
        accepted, ds_complete = scheduler.task_done(0, task)
        assert accepted
        if ds_complete:
            complete_ids.add(task[0])
        complete_ids.update(scheduler.take_completed_datasets())
        return True

    for _ in range(data.draw(st.integers(0, 30), label="steps")):
        check_pending_against_model()
        if not run_one():
            break
    # Drain to completion: nothing may be lost or stuck.
    for _ in range(10_000):
        if not run_one():
            break
    check_pending_against_model()
    for ds_id in shapes:
        assert scheduler.is_complete(ds_id), f"{ds_id} never completed"


# -- differential: per-dataset queues against one scanned global queue -------


class ScanningScheduler(Scheduler):
    """Reference model: every queued task in one list sorted by
    (dataset insertion rank, task index), scanned whole by every
    ``next_task``.  Lifecycle bookkeeping is inherited; only the queue
    and the pick are its own."""

    def __init__(self, affinity=True):
        super().__init__(affinity)
        self._ranks = itertools.count()
        self._rank = {}
        self._pending = []  # (rank, task index, dataset id)

    def add_dataset(self, sched):
        self._rank[sched.id] = next(self._ranks)
        super().add_dataset(sched)

    def _queue(self, sched, task_index):
        sched.task_state[task_index] = TaskState.PENDING
        if not sched.cancelled:
            insort(self._pending, (self._rank[sched.id], task_index, sched.id))

    def _drop(self, dataset_id):
        before = len(self._pending)
        self._pending = [e for e in self._pending if e[2] != dataset_id]
        return before - len(self._pending)

    def cancel_dataset(self, dataset_id):
        super().cancel_dataset(dataset_id)
        return self._drop(dataset_id)

    def forget_dataset(self, dataset_id):
        super().forget_dataset(dataset_id)
        self._drop(dataset_id)

    def queued(self):
        return [(dataset_id, index) for _, index, dataset_id in self._pending]

    def next_task(self, slave_id):
        if slave_id not in self._slave_tasks:
            raise KeyError(slave_id)
        first_eligible, affinity_hits = {}, {}
        for position, (_, task_index, dataset_id) in enumerate(self._pending):
            sched = self._datasets[dataset_id]
            job = sched.job_id
            if job in first_eligible and (
                not self.affinity_enabled or job in affinity_hits
            ):
                continue
            if not self._task_eligible((dataset_id, task_index)):
                continue
            first_eligible.setdefault(job, position)
            if self.affinity_enabled and job not in affinity_hits:
                key = (sched.affinity_group, task_index)
                if self._affinity.get(key) == slave_id:
                    affinity_hits[job] = position
        if not first_eligible:
            return None
        job = self._pick_job(first_eligible)
        position = affinity_hits.get(job, first_eligible[job])
        _, task_index, dataset_id = self._pending.pop(position)
        task = (dataset_id, task_index)
        self._last_job = job
        self.job_dispatches[job] = self.job_dispatches.get(job, 0) + 1
        self._datasets[dataset_id].task_state[task_index] = TaskState.ASSIGNED
        self._assigned[task] = slave_id
        self._slave_tasks[slave_id].add(task)
        return task


def queued(scheduler):
    return [
        (ds_id, index)
        for ds_id, sched in scheduler._datasets.items()
        for index in sched.pending
    ]


#: Every schedule runs each of these at least once.
REQUIRED_OPS = ["fail", "lose_slave", "reset", "cancel", "forget"]
OPS = ["next", "next", "next", "done", "done", "stale", "add", "add_slave"]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_dispatch_order_matches_scanning_reference(data):
    """Random schedules over several jobs, with two same-group datasets
    runnable at once, slave loss, failures, lineage resets, cancels and
    releases: both schedulers answer every call alike and keep the same
    queue, in the same order."""
    affinity = data.draw(st.booleans(), label="affinity")
    fast, ref = Scheduler(affinity), ScanningScheduler(affinity)
    both = (fast, ref)
    assigned = {}  # task -> slave
    slaves = []
    datasets = []

    def call(method, *args):
        answers = [getattr(s, method)(*args) for s in both]
        assert answers[0] == answers[1], (method, args, answers)
        return answers[0]

    def add_slave():
        slave = len(slaves)
        slaves.append(slave)
        call("add_slave", slave)

    def add_dataset(group, job, input_id="input", ntasks=3):
        ds_id = f"d{len(datasets)}"
        datasets.append(ds_id)
        for s in both:
            s.add_dataset(
                ScheduledDataset(ds_id, ntasks, group, input_id, job_id=job)
            )

    for _ in range(3):
        add_slave()
    call("mark_input_complete", "input")
    add_dataset("g", "job-a")
    add_dataset("g", "job-a")  # same group, runnable at once
    add_dataset("h", "job-b", ntasks=2)
    add_dataset("g", None, input_id="d0")

    ops = data.draw(
        st.lists(st.sampled_from(OPS), min_size=10, max_size=60), label="ops"
    )
    ops = data.draw(st.permutations(ops + REQUIRED_OPS), label="schedule")
    for op in ops + ["drain"]:
        if op == "next":
            slave = data.draw(st.sampled_from(slaves))
            task = call("next_task", slave)
            if task is not None:
                assigned[task] = slave
        elif op in ("done", "fail", "stale") and assigned:
            task = data.draw(st.sampled_from(sorted(assigned)))
            if op == "stale":
                call("task_done", assigned[task] + len(slaves), task)
            elif op == "done":
                call("task_done", assigned.pop(task), task)
            else:
                call("task_failed", assigned.pop(task), task)
        elif op == "add":
            add_dataset(
                data.draw(st.sampled_from(["g", "h"])),
                data.draw(st.sampled_from([None, "job-a", "job-b"])),
                data.draw(st.sampled_from(["input"] + datasets)),
                data.draw(st.integers(0, 4)),
            )
        elif op == "add_slave":
            add_slave()
        elif op == "lose_slave" and len(slaves) > 1:
            slave = slaves.pop(data.draw(st.integers(0, len(slaves) - 1)))
            for task in call("remove_slave", slave):
                assigned.pop(task, None)
        elif op in ("reset", "cancel", "forget"):
            ds_id = data.draw(st.sampled_from(datasets))
            if op == "reset":
                call("unmark_complete", ds_id)
                indices = data.draw(st.lists(st.integers(0, 3), max_size=3))
                call("reset_tasks", ds_id, indices)
            elif op == "cancel":
                call("cancel_dataset", ds_id)
            else:
                call("forget_dataset", ds_id)
                for task in [t for t in assigned if t[0] == ds_id]:
                    del assigned[task]
        elif op == "drain":
            progress = True
            while progress:
                progress = False
                for slave in slaves:
                    task = call("next_task", slave)
                    if task is not None:
                        call("task_done", slave, task)
                        progress = True
        assert queued(fast) == ref.queued()
        assert fast._assigned == ref._assigned
        assert fast._affinity == ref._affinity
        assert fast._complete_ids == ref._complete_ids
