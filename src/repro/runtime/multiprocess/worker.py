"""Worker process of the multiprocess runtime.

A worker is the single-node analogue of a cluster slave: it
re-instantiates the user's program class locally (user code never
crosses the process boundary — only method *names* inside task
descriptors), then executes descriptors from its private dispatch queue
until it receives the ``None`` sentinel.  Results, failures, and
per-task metric snapshots ride back to the pool on a shared result
queue instead of XML-RPC; the data plane is the cluster's shared-tmpdir
file exchange, unchanged.

Wire shape of result-queue messages (dicts of scalars, mirroring the
control-plane discipline of :mod:`repro.comm.protocol`):

==============  ========================================================
``type``        remaining fields
==============  ========================================================
``ready``       ``worker_id``
``init_failed`` ``worker_id``, ``message``
``done``        ``worker_id``, ``dataset_id``, ``task_index``,
                ``bucket_urls``, ``seconds``, ``metrics``
``failed``      ``worker_id``, ``dataset_id``, ``task_index``,
                ``message``
==============  ========================================================
"""

from __future__ import annotations

import logging
import time
from typing import Any, List

from repro.observability.profiling import profiler_from_opts
from repro.observability.telemetry import HealthSampler
from repro.runtime.executor import execute_descriptor

logger = logging.getLogger("repro.worker")


def worker_main(
    worker_id: int,
    program_class: Any,
    opts: Any,
    args: List[str],
    task_queue: Any,
    result_queue: Any,
) -> None:
    """Worker process entry point.

    Must stay a module-level function: the spawn start method pickles
    it by reference, along with ``program_class`` (which must therefore
    be importable, not defined in a script body or closure).
    """
    boot = time.perf_counter()
    try:
        program = program_class(opts, args)
    except Exception as exc:
        result_queue.put(
            {
                "type": "init_failed",
                "worker_id": worker_id,
                "message": repr(exc),
            }
        )
        return
    profiler = profiler_from_opts(opts)
    # Health sampling: throttled snapshots ride back on done messages;
    # task throughput from a local completion count.
    completed = [0.0]
    sampler = HealthSampler(
        rundir=getattr(opts, "tmpdir", None),
        task_counter=lambda: completed[0],
    )
    result_queue.put({"type": "ready", "worker_id": worker_id})
    boot_seconds: Any = None
    first_task = True
    while True:
        descriptor = task_queue.get()
        if descriptor is None:
            return
        if first_task:
            first_task = False
            boot_seconds = time.perf_counter() - boot
        dataset_id = descriptor["dataset_id"]
        task_index = int(descriptor["task_index"])
        try:
            urls, seconds, metrics = execute_descriptor(
                program,
                descriptor,
                "worker",
                profiler=profiler,
                sampler=sampler,
                boot_seconds=boot_seconds,
            )
            boot_seconds = None
            completed[0] += 1.0
        except Exception as exc:
            logger.warning(
                "task (%s, %d) failed: %r", dataset_id, task_index, exc
            )
            result_queue.put(
                {
                    "type": "failed",
                    "worker_id": worker_id,
                    "dataset_id": dataset_id,
                    "task_index": task_index,
                    "message": repr(exc),
                }
            )
            continue
        result_queue.put(
            {
                "type": "done",
                "worker_id": worker_id,
                "dataset_id": dataset_id,
                "task_index": task_index,
                "bucket_urls": urls,
                "seconds": seconds,
                "metrics": metrics,
            }
        )
