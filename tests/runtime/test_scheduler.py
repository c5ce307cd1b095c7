"""Scheduler policies: activation, affinity, failure handling."""

import pytest

from repro.runtime.scheduler import ScheduledDataset, Scheduler


def sched_ds(ds_id, ntasks=2, group=None, input_id="input", blocking=()):
    return ScheduledDataset(
        ds_id,
        ntasks=ntasks,
        affinity_group=group or ds_id,
        input_id=input_id,
        blocking_ids=blocking,
    )


@pytest.fixture
def scheduler():
    s = Scheduler()
    s.add_slave(1)
    s.add_slave(2)
    return s


class TestActivation:
    def test_not_runnable_until_input_complete(self, scheduler):
        scheduler.add_dataset(sched_ds("d1"))
        assert scheduler.next_task(1) is None
        scheduler.mark_input_complete("input")
        assert scheduler.next_task(1) == ("d1", 0)

    def test_input_complete_before_add(self, scheduler):
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("d1"))
        assert scheduler.next_task(1) is not None

    def test_blocking_ids_also_required(self, scheduler):
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("d1", blocking=["other"]))
        assert scheduler.next_task(1) is None
        scheduler.mark_input_complete("other")
        assert scheduler.next_task(1) is not None

    def test_chained_activation(self, scheduler):
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("d1", ntasks=1))
        scheduler.add_dataset(sched_ds("d2", ntasks=1, input_id="d1"))
        task = scheduler.next_task(1)
        assert task == ("d1", 0)
        accepted, complete = scheduler.task_done(1, task)
        assert accepted and complete
        assert scheduler.next_task(1) == ("d2", 0)

    def test_duplicate_dataset_rejected(self, scheduler):
        scheduler.add_dataset(sched_ds("d1"))
        with pytest.raises(ValueError):
            scheduler.add_dataset(sched_ds("d1"))


class TestAssignment:
    def test_fifo_within_dataset(self, scheduler):
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("d1", ntasks=3))
        assert scheduler.next_task(1) == ("d1", 0)
        assert scheduler.next_task(2) == ("d1", 1)
        assert scheduler.next_task(1) == ("d1", 2)
        assert scheduler.next_task(2) is None

    def test_unknown_slave_rejected(self, scheduler):
        with pytest.raises(KeyError):
            scheduler.next_task(99)

    def test_progress(self, scheduler):
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("d1", ntasks=2))
        assert scheduler.progress("d1") == 0.0
        task = scheduler.next_task(1)
        scheduler.task_done(1, task)
        assert scheduler.progress("d1") == 0.5


class TestCompletion:
    def test_stale_done_rejected(self, scheduler):
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("d1", ntasks=1))
        task = scheduler.next_task(1)
        accepted, _ = scheduler.task_done(2, task)  # wrong slave
        assert not accepted
        accepted, complete = scheduler.task_done(1, task)
        assert accepted and complete

    def test_double_done_rejected(self, scheduler):
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("d1", ntasks=1))
        task = scheduler.next_task(1)
        scheduler.task_done(1, task)
        accepted, _ = scheduler.task_done(1, task)
        assert not accepted

    def test_outstanding_counts(self, scheduler):
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("d1", ntasks=2))
        assert scheduler.outstanding() == 2
        scheduler.next_task(1)
        assert scheduler.outstanding() == 2  # pending + assigned
        scheduler.task_done(1, ("d1", 0))
        assert scheduler.outstanding() == 1


class TestAffinity:
    def _run_iteration(self, scheduler, ds_id, group="iter"):
        scheduler.add_dataset(sched_ds(ds_id, ntasks=2, group=group, input_id="input"))

    def test_affinity_prefers_previous_slave(self, scheduler):
        scheduler.mark_input_complete("input")
        self._run_iteration(scheduler, "it1")
        t0 = scheduler.next_task(1)
        t1 = scheduler.next_task(2)
        scheduler.task_done(1, t0)
        scheduler.task_done(2, t1)
        # Second iteration, same affinity group: slave 2 should get the
        # same task index it ran before, even though index 0 is first
        # in FIFO order.
        self._run_iteration(scheduler, "it2")
        assert scheduler.next_task(2) == ("it2", 1)
        assert scheduler.next_task(1) == ("it2", 0)

    def test_affinity_disabled(self):
        s = Scheduler(affinity=False)
        s.add_slave(1)
        s.add_slave(2)
        s.mark_input_complete("input")
        s.add_dataset(sched_ds("it1", ntasks=2, group="iter"))
        t0 = s.next_task(1)
        t1 = s.next_task(2)
        s.task_done(1, t0)
        s.task_done(2, t1)
        s.add_dataset(sched_ds("it2", ntasks=2, group="iter"))
        # FIFO order regardless of history.
        assert s.next_task(2) == ("it2", 0)

    def test_affinity_map_queryable(self, scheduler):
        scheduler.mark_input_complete("input")
        self._run_iteration(scheduler, "it1")
        task = scheduler.next_task(1)
        scheduler.task_done(1, task)
        assert scheduler.affinity_slave("iter", task[1]) == 1


class TestLineageRecovery:
    def test_reset_tasks_requeues_done_work(self, scheduler):
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("d1", ntasks=2))
        for _ in range(2):
            task = scheduler.next_task(1)
            scheduler.task_done(1, task)
        assert scheduler.progress("d1") == 1.0
        reset = scheduler.reset_tasks("d1", [0, 1])
        assert reset == 2
        assert scheduler.progress("d1") == 0.0
        assert scheduler.next_task(2) is not None

    def test_reset_skips_assigned_and_pending(self, scheduler):
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("d1", ntasks=3))
        t0 = scheduler.next_task(1)
        scheduler.task_done(1, t0)  # t0 done; t1,t2 pending
        assert scheduler.reset_tasks("d1", [0, 1, 2]) == 1

    def test_unmark_complete_blocks_consumers(self, scheduler):
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("producer", ntasks=1))
        task = scheduler.next_task(1)
        scheduler.task_done(1, task)
        scheduler.add_dataset(
            sched_ds("consumer", ntasks=1, input_id="producer")
        )
        # Revoke the producer: the consumer's pending task becomes
        # ineligible even though it is queued.
        scheduler.unmark_complete("producer")
        assert scheduler.next_task(2) is None
        # Recompute the producer; the consumer becomes eligible again.
        scheduler.reset_tasks("producer", [0])
        redo = scheduler.next_task(2)
        assert redo == ("producer", 0)
        scheduler.task_done(2, redo)
        assert scheduler.next_task(1) == ("consumer", 0)

    def test_reset_unknown_dataset_is_noop(self, scheduler):
        assert scheduler.reset_tasks("ghost", [0]) == 0


class TestEmptyDatasets:
    def test_empty_dataset_completes_on_activation(self, scheduler):
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("empty", ntasks=0))
        assert scheduler.is_complete("empty")
        assert scheduler.progress("empty") == 1.0
        assert scheduler.take_completed_datasets() == ["empty"]

    def test_dependent_of_empty_dataset_activates(self, scheduler):
        """The verified repro: a zero-task dataset used to satisfy
        ``complete`` without ever entering ``_complete_ids`` (that only
        happened in ``task_done``, which never fires for it), so its
        dependents stalled forever."""
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("empty", ntasks=0))
        scheduler.add_dataset(sched_ds("d2", ntasks=1, input_id="empty"))
        assert scheduler.next_task(1) == ("d2", 0)

    def test_chain_of_empty_datasets_propagates(self, scheduler):
        scheduler.add_dataset(sched_ds("e1", ntasks=0))
        scheduler.add_dataset(sched_ds("e2", ntasks=0, input_id="e1"))
        scheduler.add_dataset(sched_ds("d", ntasks=1, input_id="e2"))
        assert scheduler.next_task(1) is None
        scheduler.mark_input_complete("input")
        assert scheduler.is_complete("e1")
        assert scheduler.is_complete("e2")
        assert set(scheduler.take_completed_datasets()) == {"e1", "e2"}
        assert scheduler.next_task(1) == ("d", 0)

    def test_empty_dataset_not_complete_before_activation(self, scheduler):
        scheduler.add_dataset(sched_ds("empty", ntasks=0))
        assert not scheduler.is_complete("empty")
        assert scheduler.progress("empty") == 0.0
        assert scheduler.take_completed_datasets() == []


class TestFailureAffinity:
    def test_failed_task_drops_affinity_entry(self, scheduler):
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("it1", ntasks=1, group="iter"))
        task = scheduler.next_task(1)
        scheduler.task_done(1, task)
        assert scheduler.affinity_slave("iter", 0) == 1
        scheduler.add_dataset(sched_ds("it2", ntasks=1, group="iter"))
        task = scheduler.next_task(1)
        scheduler.task_failed(1, task)
        assert scheduler.affinity_slave("iter", 0) is None

    def test_failing_slave_no_longer_prefers_its_failed_task(self, scheduler):
        """Without the fix the stale affinity entry steered the retry
        straight back to the slave it just failed on, ping-ponging
        until the failure budget burned."""
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("it1", ntasks=2, group="iter"))
        assert scheduler.next_task(2) == ("it1", 0)
        assert scheduler.next_task(1) == ("it1", 1)
        scheduler.task_done(2, ("it1", 0))
        scheduler.task_done(1, ("it1", 1))
        # Affinity now: task 0 -> slave 2, task 1 -> slave 1.
        scheduler.add_dataset(sched_ds("it2", ntasks=2, group="iter"))
        assert scheduler.next_task(1) == ("it2", 1)  # affinity match
        scheduler.task_failed(1, ("it2", 1))
        # The retry is no longer steered to slave 1; FIFO applies.
        assert scheduler.next_task(1) == ("it2", 0)

    def test_other_slaves_affinity_untouched_by_failure(self, scheduler):
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("it1", ntasks=1, group="iter"))
        task = scheduler.next_task(1)
        scheduler.task_done(1, task)
        scheduler.add_dataset(sched_ds("it2", ntasks=1, group="iter"))
        task = scheduler.next_task(1)
        # Slave 2 reports the failure (stale/foreign): entry survives.
        scheduler.task_failed(2, task)
        assert scheduler.affinity_slave("iter", 0) == 1


class TestRequeueOrdering:
    def _two_active_datasets(self):
        s = Scheduler(affinity=False)
        s.add_slave(1)
        s.add_slave(2)
        s.mark_input_complete("input")
        s.add_dataset(sched_ds("d1", ntasks=1))
        s.add_dataset(sched_ds("d2", ntasks=2))
        return s

    def test_failed_task_requeues_ahead_of_later_datasets(self):
        s = self._two_active_datasets()
        assert s.next_task(1) == ("d1", 0)
        assert s.next_task(2) == ("d2", 0)
        s.task_failed(1, ("d1", 0))
        # FIFO across datasets: the d1 retry outranks d2's queued work.
        assert s.next_task(2) == ("d1", 0)

    def test_remove_slave_requeues_in_dataset_order(self):
        s = self._two_active_datasets()
        assert s.next_task(1) == ("d1", 0)
        s.remove_slave(1)
        assert s.next_task(2) == ("d1", 0)

    def test_reset_tasks_requeues_in_dataset_order(self):
        s = self._two_active_datasets()
        assert s.next_task(1) == ("d1", 0)
        s.task_done(1, ("d1", 0))
        s.reset_tasks("d1", [0])
        assert s.next_task(2) == ("d1", 0)


def iteration_pair(scheduler, ntasks=2):
    """One iteration's reduce and the next iteration's map over it,
    with the same split count: the shape of an unfused iterative
    program."""
    scheduler.mark_input_complete("input")
    scheduler.add_dataset(sched_ds("red", ntasks=ntasks))
    scheduler.add_dataset(sched_ds("map2", ntasks=ntasks, input_id="red"))


class TestIterationBarrier:
    def test_consumer_waits_for_whole_input(self, scheduler):
        iteration_pair(scheduler)
        assert scheduler.next_task(1) == ("red", 0)
        assert scheduler.next_task(2) == ("red", 1)
        scheduler.task_done(1, ("red", 0))
        # Source 0 is done, but map2 task 0 waits for all of red.
        assert scheduler.next_task(1) is None
        scheduler.task_done(2, ("red", 1))
        assert scheduler.next_task(1) == ("map2", 0)
        assert scheduler.next_task(2) == ("map2", 1)

    def test_reset_blocks_every_consumer_until_rerun(self, scheduler):
        """Lineage recovery re-runs only the lost producer task, and
        every consumer task waits for it, not only the matching one."""
        iteration_pair(scheduler)
        scheduler.next_task(1)
        scheduler.next_task(2)
        scheduler.task_done(1, ("red", 0))
        scheduler.task_done(2, ("red", 1))
        # Slave 1's data died.
        scheduler.unmark_complete("red")
        assert scheduler.reset_tasks("red", [0]) == 1
        assert scheduler.next_task(2) == ("red", 0)
        assert scheduler.next_task(2) is None
        scheduler.task_done(2, ("red", 0))
        assert scheduler.is_complete("red")
        assert scheduler.next_task(2) == ("map2", 0)
        assert scheduler.next_task(1) == ("map2", 1)


class TestCancel:
    def test_struck_out_siblings_retry_is_not_requeued(self, scheduler):
        """A dataset that struck out is cancelled; a sibling task still
        in flight that then fails once must not be dispatched again."""
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("d1", ntasks=2))
        assert scheduler.next_task(1) == ("d1", 0)
        assert scheduler.next_task(2) == ("d1", 1)
        scheduler.cancel_dataset("d1")
        scheduler.task_failed(2, ("d1", 1))
        assert not scheduler.has_pending()
        assert scheduler.next_task(2) is None
        assert scheduler.outstanding() == 1  # task 0 still runs

    def test_cancelled_tasks_stay_out_on_every_requeue_path(self, scheduler):
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("d1", ntasks=3))
        assert scheduler.next_task(1) == ("d1", 0)
        scheduler.task_done(1, ("d1", 0))
        assert scheduler.next_task(1) == ("d1", 1)
        assert scheduler.next_task(2) == ("d1", 2)
        assert scheduler.cancel_dataset("d1") == 0
        scheduler.remove_slave(2)
        scheduler.unmark_complete("d1")
        scheduler.reset_tasks("d1", [0])
        scheduler.task_failed(1, ("d1", 1))
        assert not scheduler.has_pending()
        assert scheduler.outstanding() == 0


class TestSlaveFailure:
    def test_assigned_tasks_return_to_pending(self, scheduler):
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("d1", ntasks=2))
        t0 = scheduler.next_task(1)
        reassigned = scheduler.remove_slave(1)
        assert t0 in reassigned
        # Slave 2 can now pick it up.
        assert scheduler.next_task(2) in [("d1", 0), ("d1", 1)]

    def test_dead_slave_affinity_forgotten(self, scheduler):
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("it1", ntasks=1, group="iter"))
        task = scheduler.next_task(1)
        scheduler.task_done(1, task)
        scheduler.remove_slave(1)
        assert scheduler.affinity_slave("iter", 0) is None

    def test_task_failed_requeues(self, scheduler):
        scheduler.mark_input_complete("input")
        scheduler.add_dataset(sched_ds("d1", ntasks=1))
        task = scheduler.next_task(1)
        scheduler.task_failed(1, task)
        assert scheduler.next_task(2) == task

    def test_remove_unknown_slave_is_noop(self, scheduler):
        assert scheduler.remove_slave(99) == []
