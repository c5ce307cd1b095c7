"""Worker-pool plumbing: process handles, spawn/respawn, shutdown.

Pure process bookkeeping — scheduling and failure policy live in the
backend, the way the scheduler is kept free of I/O on the cluster side.
Each worker gets a *private* dispatch queue (so a task reaches exactly
the worker the scheduler chose, preserving iteration affinity) and all
workers share one result queue back to the pool.
"""

from __future__ import annotations

import logging
from typing import Any, Dict, List, Optional

from repro.runtime.multiprocess import worker as worker_mod

logger = logging.getLogger("repro.multiprocess")

#: Seconds to wait for a worker to drain its queue and exit cleanly
#: before terminating it.
SHUTDOWN_JOIN_TIMEOUT = 5.0


class WorkerHandle:
    """Pool-side view of one worker process (cf. the master's
    ``SlaveRecord``)."""

    def __init__(self, worker_id: int, process: Any, task_queue: Any):
        self.worker_id = worker_id
        self.process = process
        self.task_queue = task_queue

    def alive(self) -> bool:
        return self.process.is_alive()

    def __repr__(self) -> str:
        state = "alive" if self.alive() else "dead"
        return f"WorkerHandle({self.worker_id}, {state})"


class WorkerPool:
    """Spawns and tracks worker processes over a multiprocessing
    context (fork, spawn, or forkserver)."""

    def __init__(
        self,
        ctx: Any,
        program_class: Any,
        opts: Any,
        args: List[str],
        result_queue: Any,
    ):
        self.ctx = ctx
        self.program_class = program_class
        self.opts = opts
        self.args = list(args or [])
        self.result_queue = result_queue
        self._next_id = 1
        self._handles: Dict[int, WorkerHandle] = {}

    def spawn(self) -> WorkerHandle:
        """Start one worker process; ids never repeat (like slave ids),
        so late messages from a dead worker can never be confused with
        its replacement."""
        worker_id = self._next_id
        self._next_id += 1
        task_queue = self.ctx.Queue()
        process = self.ctx.Process(
            target=worker_mod.worker_main,
            args=(
                worker_id,
                self.program_class,
                self.opts,
                self.args,
                task_queue,
                self.result_queue,
            ),
            name=f"mrs-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        handle = WorkerHandle(worker_id, process, task_queue)
        self._handles[worker_id] = handle
        return handle

    def get(self, worker_id: int) -> Optional[WorkerHandle]:
        return self._handles.get(worker_id)

    def handles(self) -> List[WorkerHandle]:
        return list(self._handles.values())

    def alive_handles(self) -> List[WorkerHandle]:
        return [h for h in self._handles.values() if h.alive()]

    def reap_dead(self) -> List[WorkerHandle]:
        """Remove and return handles whose process has exited."""
        dead = [h for h in self._handles.values() if not h.alive()]
        for handle in dead:
            del self._handles[handle.worker_id]
            handle.process.join(timeout=0)
        return dead

    def shutdown(self) -> None:
        """Sentinel every live worker, join, terminate stragglers."""
        for handle in self._handles.values():
            if handle.alive():
                try:
                    handle.task_queue.put(None)
                except Exception:
                    pass
        for handle in self._handles.values():
            handle.process.join(timeout=SHUTDOWN_JOIN_TIMEOUT)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
        self._handles.clear()
