"""The multiprocess worker-pool backend (single-node parallelism).

This is the :class:`~repro.runtime.coordinator.Coordinator`'s queue
transport — the cluster master with the network removed: the same
scheduler, task descriptors, shared-tmpdir file data plane and per-task
failure budget, but descriptors travel over per-worker
``multiprocessing`` queues instead of XML-RPC, and "slaves" are local
worker processes the pool itself forks (or spawns).

Liveness is the pool's own: a worker that dies mid-task is detected by
the collector thread's sweep, its in-flight task is requeued (burning
one strike of the shared ``MAX_TASK_FAILURES`` budget — a crash is
evidence against the task as well as the worker), and a replacement
process is spawned, up to a respawn cap that stops a crash-looping
program from forking forever.

Observability mirrors the slave piggyback: each ``done`` message
carries the worker's span for the task and a fresh per-task registry
snapshot, so ``Job.metrics()`` totals cover the whole pool with every
task counted exactly once, broken down per worker under ``sources``.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import queue as queue_mod
import threading
import time
from typing import Any, Dict, List, Optional

from repro.runtime.coordinator import Coordinator
from repro.runtime.multiprocess.pool import WorkerPool

logger = logging.getLogger("repro.multiprocess")

#: Collector poll period while the result queue is idle; also the
#: worker-crash detection latency.
IDLE_POLL = 0.2

#: Seconds between heartbeat events.
HEARTBEAT_INTERVAL = 5.0


class MultiprocessBackend(Coordinator):
    """Job backend that runs tasks on a pool of local processes."""

    role = "multiprocess"
    tmpdir_prefix = "mrs_mp_"
    worker_label = "worker"

    def __init__(self, program: Any, opts: Any, args: Optional[List[str]] = None):
        super().__init__(program, opts)
        #: --mrs-procs: pool size (0 = one worker per core).
        self.n_procs = int(getattr(opts, "procs", 0) or 0) or (
            os.cpu_count() or 1
        )
        start_method = getattr(opts, "start_method", None)
        self.ctx = multiprocessing.get_context(start_method)
        #: Throttle for heartbeat events (the liveness sweep itself runs
        #: every IDLE_POLL seconds, far too often to log).
        self._last_heartbeat = 0.0
        self._ready: set = set()
        self._respawns = 0
        #: Crash-loop guard: stop replacing dead workers after this many
        #: losses (a program whose __init__ or map kills every process
        #: would otherwise fork forever).
        self._max_respawns = max(4, 2 * self.n_procs)

        self.result_queue = self.ctx.Queue()
        self.pool = WorkerPool(
            self.ctx, type(program), opts, list(args or []), self.result_queue
        )
        with self._lock:
            for _ in range(self.n_procs):
                self._spawn_worker()
        self.observability.registry.gauge("workers.alive").set(self.n_procs)

        self._collector = threading.Thread(
            target=self._collector_loop, name="mrs-mp-collector", daemon=True
        )
        self._collector.start()

    def _spawn_worker(self, replaces: Optional[int] = None) -> int:
        """Start one worker and register it with the scheduler (caller
        holds the lock)."""
        worker_id = self.pool.spawn().worker_id
        self.scheduler.add_slave(worker_id)
        events = self.observability.events
        if events is not None:
            fields = {} if replaces is None else {"replaces": replaces}
            events.emit("worker.spawned", worker=worker_id, **fields)
        return worker_id

    # ------------------------------------------------------------------
    # Transport hooks
    # ------------------------------------------------------------------

    def _live_workers(self) -> List[int]:
        return [handle.worker_id for handle in self.pool.alive_handles()]

    def _send(self, worker_id: int, descriptor: Dict[str, Any]) -> None:
        handle = self.pool.get(worker_id)
        # A worker reaped since the lock was dropped has already had
        # this task requeued by the crash sweep.
        if handle is not None:
            handle.task_queue.put(descriptor)

    def _lose_worker(self, worker_id: int, reason: str) -> None:
        """A worker whose queue rejects a descriptor is unusable: kill
        it and let the crash sweep requeue its task and respawn."""
        logger.warning("worker %d lost: %s", worker_id, reason)
        handle = self.pool.get(worker_id)
        if handle is not None:
            handle.process.terminate()

    def _transport_status(self, status: Dict[str, Any]) -> None:
        # A live worker is ready once it has built its program copy.
        status["workers"]["ready"] = len(self._ready)
        status["workers"]["respawns"] = self._respawns

    def _shutdown_transport(self) -> None:
        self.pool.shutdown()
        self._collector.join(timeout=2.0)
        self.result_queue.close()
        self.result_queue.cancel_join_thread()

    # ------------------------------------------------------------------
    # Backend interface (called from the program's main thread)
    # ------------------------------------------------------------------

    @property
    def default_splits(self) -> int:
        requested = getattr(self.opts, "reduce_tasks", 0)
        return requested or self.n_procs

    # ------------------------------------------------------------------
    # Collector (runs on its own thread; the pool's "RPC handler")
    # ------------------------------------------------------------------

    def _collector_loop(self) -> None:
        while not self._closed:
            try:
                message = self.result_queue.get(timeout=IDLE_POLL)
            except queue_mod.Empty:
                self._check_workers()
                continue
            except (EOFError, OSError):
                return
            if self._closed:
                return
            mtype = message.get("type")
            if mtype == "ready":
                self._on_ready(int(message["worker_id"]))
            elif mtype == "done":
                self.task_done(
                    int(message["worker_id"]),
                    message["dataset_id"],
                    int(message["task_index"]),
                    message["bucket_urls"],
                    message.get("seconds", 0.0),
                    message.get("metrics"),
                )
            elif mtype == "failed":
                self.task_failed(
                    int(message["worker_id"]),
                    message["dataset_id"],
                    int(message["task_index"]),
                    str(message.get("message", "")),
                )
            elif mtype == "init_failed":
                # The worker exits right after sending this; the next
                # liveness sweep reaps and (maybe) replaces it.
                logger.error(
                    "worker %s failed to initialize: %s",
                    message.get("worker_id"),
                    message.get("message"),
                )

    def _on_ready(self, worker_id: int) -> None:
        with self._cond:
            self._ready.add(worker_id)
            if len(self._ready) >= self.n_procs:
                # The pool is ready: the single-node analogue of the
                # paper's "~2 s" cluster startup quantity.
                self.observability.mark_startup_complete()
            self._cond.notify_all()
        self._dispatch()

    # ------------------------------------------------------------------
    # Crash detection and respawn
    # ------------------------------------------------------------------

    def _check_workers(self) -> None:
        """Reap dead workers: requeue their in-flight task (one strike
        against its failure budget) and spawn replacements."""
        with self._lock:
            if self._closed:
                return
            events = self.observability.events
            if events is not None:
                now = time.monotonic()
                if now - self._last_heartbeat >= HEARTBEAT_INTERVAL:
                    self._last_heartbeat = now
                    events.emit(
                        "heartbeat",
                        alive=len(self.pool.alive_handles()),
                        outstanding=self.scheduler.outstanding(),
                    )
            dead = self.pool.reap_dead()
            if not dead:
                return
            for handle in dead:
                worker_id = handle.worker_id
                task = self._busy.pop(worker_id, None)
                logger.warning(
                    "worker %d died unexpectedly (exitcode %s)",
                    worker_id,
                    handle.process.exitcode,
                )
                self.observability.registry.counter("workers.lost").inc()
                if events is not None:
                    events.emit(
                        "worker.lost",
                        worker=worker_id,
                        exitcode=handle.process.exitcode,
                        busy_task=list(task) if task else None,
                    )
                self._ready.discard(worker_id)
                # Requeues the worker's assigned task, like a lost slave.
                self.scheduler.remove_slave(worker_id)
                if task is not None:
                    self._strike(task, "killed its worker")
                    self._note_requeued(task)
                if self._respawns < self._max_respawns:
                    self._respawns += 1
                    replacement = self._spawn_worker(replaces=worker_id)
                    logger.info(
                        "respawned worker %d to replace %d",
                        replacement,
                        worker_id,
                    )
            alive = len(self.pool.alive_handles())
            self.observability.registry.gauge("workers.alive").set(alive)
            if alive == 0:
                for dataset in self._datasets.values():
                    if not dataset.complete and not dataset.error:
                        dataset.error = "all workers died"
            self._cond.notify_all()
        self._dispatch()
