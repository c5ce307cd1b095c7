"""The master's per-task scheduling cost does not grow with the job.

A 20,000-task map runs through the in-memory ``FakeTransport`` while a
line tracer counts the Python lines executed in ``runtime/scheduler.py``.
Each dispatch and completion touches only the task's own dataset, so
the count stays under a fixed budget per task.  A scheduler that walks
every queued task per dispatch passes the budget within the first few
percent of the tasks; the tracer then aborts the run at once instead of
letting it finish quadratically.
"""

import sys

import pytest

from repro.core.job import Job
from repro.core.options import default_options
from repro.runtime import scheduler as scheduler_module

from tests.runtime.programs_mp import Tally
from tests.runtime.test_coordinator import FakeTransport

TASKS = 20_000
LINES_PER_TASK = 100


class OverBudget(Exception):
    pass


class LineCounter:
    """``sys.settrace`` hook counting the lines run in source files
    whose path starts with ``prefix``; raises :class:`OverBudget` into
    the traced code past ``budget``."""

    def __init__(self, prefix, budget=float("inf")):
        self.prefix = prefix
        self.budget = budget
        self.lines = 0

    def __call__(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(self.prefix):
            return None
        return self.local

    def local(self, frame, event, arg):
        if event == "line":
            self.lines += 1
            if self.lines > self.budget:
                raise OverBudget(self.lines)
        return self.local

    def count(self, fn):
        """Lines ``fn()`` runs under the prefix."""
        self.lines = 0
        sys.settrace(self)
        try:
            fn()
        finally:
            sys.settrace(None)
        return self.lines


def test_scheduler_lines_per_task_stay_bounded(tmp_path):
    opts = default_options(tmpdir=str(tmp_path / "run"))
    program = Tally(opts, [])
    transport = FakeTransport(program, opts)
    job = Job(transport, program)
    try:
        source = job.local_data([(i, i) for i in range(TASKS)], splits=TASKS)
        counter = LineCounter(
            scheduler_module.__file__, LINES_PER_TASK * TASKS
        )
        sys.settrace(counter)
        try:
            mapped = job.map_data(source, program.map, splits=1)
            transport.finish_all()
        except OverBudget:
            dispatched = int(
                transport.observability.registry.counter(
                    "tasks.dispatched"
                ).value
            )
            pytest.fail(
                f"{counter.lines} scheduler lines after {dispatched} of "
                f"{TASKS} tasks dispatched"
            )
        finally:
            sys.settrace(None)
        assert mapped.complete
        assert transport.scheduler.outstanding() == 0
    finally:
        transport.close()


def test_scheduler_lines_per_iteration_do_not_grow_with_kept_datasets(
    tmp_path,
):
    """An iterative job that never releases keeps every iteration's
    dataset: the scheduler walks only the datasets still waiting for
    inputs and those with queued tasks, so an iteration costs the same
    scheduler lines at iteration 2000 as at iteration 100."""
    opts = default_options(tmpdir=str(tmp_path / "run"))
    program = Tally(opts, [])
    transport = FakeTransport(program, opts)
    job = Job(transport, program)
    counter = LineCounter(scheduler_module.__file__)
    last = [job.local_data([(i, i) for i in range(4)], splits=4)]

    def iteration():
        last[0] = job.reduce_data(
            last[0], program.reduce, splits=4, affinity_group="iter"
        )
        transport.finish_all()
        assert last[0].complete

    def lines_at(start):
        while len(transport._datasets) < start:
            iteration()
        return sum(counter.count(iteration) for _ in range(10)) / 10

    try:
        early, late = lines_at(100), lines_at(2000)
    finally:
        transport.close()
    assert len(transport.scheduler._datasets) > 2000
    assert late <= 1.2 * early, (early, late)
