"""TaskTracker slots and real-execution helpers.

:class:`SimTaskTracker` is the slot-accounting half used by the
discrete-event simulation.  :func:`execute_job_for_parity` is the
correctness half: it runs the user's *actual* map/reduce functions
through the shared :mod:`~repro.runtime.taskrunner` with Hadoop's task
decomposition (one map task per input split, N reduce tasks), measuring
real Python compute seconds per task so the simulation can charge
modeled Java time (``python_seconds / java_speedup_vs_python``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.dataset import FileData, make_map_data, make_reduce_data
from repro.io.bucket import Bucket
from repro.runtime import taskrunner

KeyValue = Tuple[Any, Any]


class SimTaskTracker:
    """Slot bookkeeping for one simulated node."""

    def __init__(self, node_id: int, map_slots: int = 2, reduce_slots: int = 2):
        if map_slots < 1 or reduce_slots < 1:
            raise ValueError("trackers need at least one slot of each kind")
        self.node_id = node_id
        self.map_slots = map_slots
        self.reduce_slots = reduce_slots
        self.free_map = map_slots
        self.free_reduce = reduce_slots

    def acquire(self, is_map_slot: bool) -> bool:
        if is_map_slot:
            if self.free_map > 0:
                self.free_map -= 1
                return True
            return False
        if self.free_reduce > 0:
            self.free_reduce -= 1
            return True
        return False

    def release(self, is_map_slot: bool) -> None:
        if is_map_slot:
            self.free_map += 1
            if self.free_map > self.map_slots:
                raise RuntimeError("map slot released twice")
        else:
            self.free_reduce += 1
            if self.free_reduce > self.reduce_slots:
                raise RuntimeError("reduce slot released twice")

    def __repr__(self) -> str:
        return (
            f"SimTaskTracker(node={self.node_id}, "
            f"map={self.free_map}/{self.map_slots}, "
            f"reduce={self.free_reduce}/{self.reduce_slots})"
        )


class ParityResult:
    """Output of a real in-process execution with per-task timings."""

    def __init__(
        self,
        pairs: List[KeyValue],
        map_seconds: List[float],
        reduce_seconds: List[float],
        map_output_records: int,
    ):
        self.pairs = pairs
        self.map_seconds = map_seconds
        self.reduce_seconds = reduce_seconds
        self.map_output_records = map_output_records


def execute_job_for_parity(
    program: Any,
    input_paths: Sequence[str],
    n_reduce_tasks: int = 1,
    combiner: Optional[Any] = None,
) -> ParityResult:
    """Run map+reduce for real, with Hadoop's task decomposition.

    One map task per input file (standing in for one per split — our
    benchmark corpora use files smaller than a block), then
    ``n_reduce_tasks`` reduce tasks over hash partitions.  Returns all
    output pairs and the measured per-task Python compute seconds.
    """
    # Hadoop's decomposition, not Mrs's byte-sized file groups.
    input_data = FileData(list(input_paths), tasks=len(input_paths))
    map_ds = make_map_data(
        input_data, program.map, splits=n_reduce_tasks, combiner=combiner
    )
    map_seconds: List[float] = []
    map_outputs: Dict[int, List[Bucket]] = {}
    total_map_records = 0
    for task_index in map_ds.task_indices():
        input_buckets = input_data.buckets_for_split(task_index)
        started = time.perf_counter()
        out = taskrunner.execute_task(
            program,
            map_ds,
            task_index,
            input_buckets,
            taskrunner.memory_bucket_factory(task_index),
        )
        map_seconds.append(time.perf_counter() - started)
        map_outputs[task_index] = out
        total_map_records += sum(len(b) for b in out)
        for bucket in out:
            map_ds.add_bucket(bucket)
    map_ds.complete = True

    reduce_ds = make_reduce_data(map_ds, program.reduce, splits=1)
    reduce_seconds: List[float] = []
    pairs: List[KeyValue] = []
    for task_index in reduce_ds.task_indices():
        input_buckets = map_ds.buckets_for_split(task_index)
        started = time.perf_counter()
        out = taskrunner.execute_task(
            program,
            reduce_ds,
            task_index,
            input_buckets,
            taskrunner.memory_bucket_factory(task_index),
        )
        reduce_seconds.append(time.perf_counter() - started)
        for bucket in out:
            pairs.extend(bucket)
    return ParityResult(pairs, map_seconds, reduce_seconds, total_map_records)
