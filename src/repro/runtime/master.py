"""Master side of the distributed implementation.

The master is the :class:`~repro.runtime.coordinator.Coordinator`'s
XML-RPC transport: it registers slaves as they sign in (a slave needs
only the master's address and port, section IV) and feeds their
``done`` / ``failed`` reports into the coordinator from RPC handler
threads while the program's ``run`` drives the job from the main thread.
Slaves pull: a dispatch fills the slave's one-slot mailbox, and the
reply to its ``done``, ``failed`` or ``next`` call carries the task.
The master also owns liveness (the ping watchdog), lineage recovery for
slave-local data, and the job namespaces of service mode.

Data plane (section IV-B): by default intermediate buckets are files in
a tmpdir shared by all slaves ("increased fault-tolerance" — a slave's
death does not lose its output).  With ``--mrs-data-plane http``,
buckets stay on the producing slave's local disk and are fetched
directly from its built-in HTTP server ("direct communication for high
performance").
"""

from __future__ import annotations

import logging
import os
import shutil
import threading
import time
import weakref
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.comm import protocol
from repro.comm.dataserver import DataServer
from repro.comm.rpc import RpcServer, format_address, rpc_client
from repro.core.dataset import ComputedData, namespace_of
from repro.core.job import Job
from repro.observability import MetricsRegistry
from repro.runtime.coordinator import Coordinator
from repro.runtime.scheduler import TaskId

logger = logging.getLogger("repro.master")

#: Watchdog ping period (seconds).
PING_INTERVAL = 2.0

#: Consecutive failed pings before a slave is declared lost — the same
#: 3-strike budget slaves apply to failed ``next`` calls (MASTER_FAILURES),
#: so one transient timeout no longer kills a healthy slave.
PING_FAILURES = 3

#: RPC timeout for master->slave calls.
SLAVE_RPC_TIMEOUT = 10.0

#: Longest an idle slave's ``next`` call waits for a task before it
#: returns nothing and the slave asks again (well under the slave's
#: 30 s call timeout).
NEXT_POLL = 0.5

#: Fallback slave sign-in wait when neither --mrs-slave-wait-timeout
#: nor MRS_SLAVE_WAIT_TIMEOUT is set.
DEFAULT_SLAVE_WAIT_TIMEOUT = 30.0


def resolve_slave_wait_timeout(opts: Any = None) -> float:
    """The sign-in wait budget: option, then environment, then 30 s."""
    value = getattr(opts, "slave_wait_timeout", None)
    if value is None:
        raw = os.environ.get("MRS_SLAVE_WAIT_TIMEOUT")
        if raw:
            try:
                value = float(raw)
            except ValueError:
                logger.warning(
                    "ignoring malformed MRS_SLAVE_WAIT_TIMEOUT=%r", raw
                )
    if value is None:
        return DEFAULT_SLAVE_WAIT_TIMEOUT
    return float(value)


class SlaveRecord:
    """Master-side view of one signed-in slave."""

    def __init__(self, slave_id: int, address: str, lock: Any, registry: Any, pid: int):
        self.id = slave_id
        self.address = address
        #: The slave's process id on its own host (0 if not reported).
        self.pid = pid
        self.alive = True
        #: ``(task, descriptor)`` dispatched to this slave and not yet
        #: taken by one of its calls (a slave runs one task at a time).
        self.mailbox: Optional[Tuple[TaskId, Dict[str, Any]]] = None
        #: ``(task, descriptor)`` last taken, to answer a lost reply
        #: again.
        self.taken: Optional[Tuple[TaskId, Dict[str, Any]]] = None
        #: Wakes this slave's waiting ``next`` call; on the
        #: coordinator's lock.
        self.wakeup = threading.Condition(lock)
        #: The one client for master->slave calls, shared by every
        #: thread; its latencies go to ``registry``.
        self.client = rpc_client(
            address, timeout=SLAVE_RPC_TIMEOUT, registry=registry
        )
        #: Consecutive watchdog ping failures (reset on any success).
        self.ping_failures = 0

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"SlaveRecord({self.id}, {self.address}, {state})"


class MasterBackend(Coordinator):
    """The Job backend that distributes tasks to slaves over XML-RPC."""

    role = "master"
    tmpdir_prefix = "mrs_master_"

    def __init__(self, program: Any, opts: Any):
        super().__init__(program, opts)
        self.data_plane = getattr(opts, "data_plane", "file") or "file"
        self._slaves: Dict[int, SlaveRecord] = {}
        self._next_slave_id = 1
        #: Which slave produced each completed task's output buckets —
        #: the lineage needed to re-execute tasks whose data died with
        #: a slave (http data plane only).
        self._producers: Dict[TaskId, int] = {}
        #: Service mode: job namespace -> (program_spec, program_args)
        #: attached to that job's task descriptors so a shared slave
        #: pool can execute tasks from many programs.
        self._job_programs: Dict[str, Tuple[Optional[str], List[str]]] = {}
        #: Per-job metrics registries (isolated from the server-wide
        #: registry; fed alongside it on every accepted completion).
        self._job_registries: Dict[str, MetricsRegistry] = {}

        # Master-side data server (for LocalData buckets in http mode).
        self.dataserver: Optional[DataServer] = None
        try:
            # Control-plane server (instrumented: every handled RPC is
            # timed into rpc.server.* in the master's registry).
            host = getattr(opts, "host", None) or "127.0.0.1"
            self.rpc = RpcServer(
                MasterInterface(self),
                host=host,
                port=opts.port,
                registry=self.observability.registry,
            )
            logger.info("master listening on %s", self.rpc.address)
            if self.data_plane == "http":
                self.dataserver = DataServer(self.tmpdir, host=host)
            runfile = getattr(opts, "runfile", None)
            if runfile:
                # Program 3, steps 2-3: the master "writes its port to
                # a file"; slaves wait for the file to appear.
                with open(runfile + ".tmp", "w") as f:
                    f.write(self.rpc.address + "\n")
                os.replace(runfile + ".tmp", runfile)
        except BaseException:
            # A failed start closes what it opened: the listeners and
            # a run directory it created.
            for server in (getattr(self, "rpc", None), self.dataserver):
                if server is not None:
                    server.shutdown()
            if self._owns_tmpdir:
                shutil.rmtree(self.tmpdir, ignore_errors=True)
            raise

        #: Set by close(): wakes the watchdog out of its sleep so the
        #: thread (and its reference to this backend) ends promptly.
        self._stop_watchdog = threading.Event()
        self._watchdog = threading.Thread(
            target=self._watchdog_loop, name="master-watchdog", daemon=True
        )
        self._watchdog.start()

    # ------------------------------------------------------------------
    # Transport hooks
    # ------------------------------------------------------------------

    def _live_workers(self) -> Iterator[int]:
        return (s.id for s in self._slaves.values() if s.alive)

    def _send(self, worker_id: int, descriptor: Dict[str, Any]) -> None:
        record = self._slaves[worker_id]
        record.mailbox = (self._busy[worker_id], descriptor)
        record.wakeup.notify()

    def _output_dir(self, dataset: ComputedData) -> Optional[str]:
        if self.data_plane == "file":
            return super()._output_dir(dataset)
        return None  # slave-local + HTTP

    def _spill_url(self, path: str) -> str:
        if self.dataserver is not None:
            return self.dataserver.url_for(path)
        return super()._spill_url(path)

    def _job_program(
        self, dataset_id: str
    ) -> Tuple[Optional[str], Optional[List[str]]]:
        return self._job_programs.get(
            self._namespace_of(dataset_id), (None, None)
        )

    def _job_registry(self, dataset_id: str) -> Optional[MetricsRegistry]:
        return self._job_registries.get(self._namespace_of(dataset_id))

    def _task_accepted(self, worker_id: int, task: TaskId) -> None:
        self._producers[task] = worker_id

    def _transport_status(self, status: Dict[str, Any]) -> None:
        status["address"] = self.rpc.address
        status["data_plane"] = self.data_plane
        slaves = []
        for record in self._slaves.values():
            busy = self._busy.get(record.id)
            slaves.append(
                {
                    "id": record.id,
                    "address": record.address,
                    "alive": record.alive,
                    "busy": list(busy) if busy else None,
                }
            )
        status["slaves"] = slaves

    def _release_worker_copies(self, dataset_id: str) -> None:
        # On the file plane every bucket lives under the shared run
        # directory, so a slave holds no copy to drop.
        if self.data_plane != "http":
            return
        for record in self.alive_slaves():
            try:
                record.client.remove_data(dataset_id)
            except Exception:
                pass  # best-effort cleanup

    def _shutdown_transport(self) -> None:
        self._stop_watchdog.set()
        for record in self.alive_slaves():
            with self._lock:
                record.wakeup.notify_all()  # its waiting ``next`` answers quit
            try:
                record.client.quit()
            except Exception:
                pass
            record.client.close()
        self.rpc.shutdown()
        if self.dataserver is not None:
            self.dataserver.shutdown()
        runfile = getattr(self.opts, "runfile", None)
        if runfile and os.path.exists(runfile):
            try:
                os.unlink(runfile)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Backend interface (called from the program's main thread)
    # ------------------------------------------------------------------

    @property
    def default_splits(self) -> int:
        requested = getattr(self.opts, "reduce_tasks", 0)
        return requested or max(1, len(self.alive_slaves()))

    def remove_data(self, dataset_id: str, job: Optional[Job] = None) -> None:
        with self._lock:
            # A released dataset is exempt from lineage recovery: its
            # data is gone on purpose.
            self._producers = {
                task: producer
                for task, producer in self._producers.items()
                if task[0] != dataset_id
            }
        super().remove_data(dataset_id, job)

    # ------------------------------------------------------------------
    # Slave management (called from RPC handler threads)
    # ------------------------------------------------------------------

    def slave_signin(self, version: int, address: str, pid: int = 0) -> int:
        if version != protocol.PROTOCOL_VERSION:
            raise protocol.ProtocolError(
                f"slave protocol version {version} != "
                f"{protocol.PROTOCOL_VERSION}"
            )
        with self._lock:
            if self._closed:
                # Nothing will ever send it a task or a quit.
                raise protocol.ProtocolError("master is shutting down")
            slave_id = self._next_slave_id
            self._next_slave_id += 1
            self._slaves[slave_id] = SlaveRecord(
                slave_id, address, self._lock, self.observability.registry, pid
            )
            self.scheduler.add_slave(slave_id)
            alive = len(self.alive_slaves())
            self._cond.notify_all()
        self.observability.registry.counter("slaves.signins").inc()
        self.observability.registry.gauge("slaves.alive").set(alive)
        self.observability.emit("slave.signin", slave=slave_id, address=address)
        logger.info("slave %d signed in from %s", slave_id, address)
        self._dispatch()
        return slave_id

    def pull(self, slave_id: int, wait: float = 0.0) -> Any:
        """A slave's next descriptor, None after ``wait`` seconds without
        one, or ``protocol.QUIT`` (master closed or slave lost): the
        reply to its ``done``, ``failed`` and ``next`` calls."""
        deadline = time.monotonic() + wait
        with self._lock:
            record = self._slaves.get(slave_id)
            while not self._closed and record is not None and record.alive:
                if record.mailbox is not None:
                    record.taken, record.mailbox = record.mailbox, None
                    return record.taken[1]
                # Still busy with the task it last took: the reply that
                # carried it was lost, so send it again, with no strike.
                if record.taken and self._busy.get(slave_id) == record.taken[0]:
                    return record.taken[1]
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                record.wakeup.wait(remaining)
            return protocol.QUIT

    def wait_for_slaves(
        self, count: int, timeout: Optional[float] = None
    ) -> int:
        """Block until ``count`` slaves have signed in (startup helper).

        ``timeout=None`` resolves --mrs-slave-wait-timeout, then the
        MRS_SLAVE_WAIT_TIMEOUT environment variable, then 30 s.
        """
        if timeout is None:
            timeout = resolve_slave_wait_timeout(self.opts)
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                alive = len(self.alive_slaves())
                if alive >= count:
                    # The cluster is ready: this is the paper's "~2 s"
                    # startup quantity, master launch to N slaves ready.
                    self.observability.mark_startup_complete()
                    return alive
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return alive
                self._cond.wait(remaining)

    def alive_slaves(self) -> List[SlaveRecord]:
        with self._lock:
            return [s for s in self._slaves.values() if s.alive]

    # ------------------------------------------------------------------
    # Job scoping (service mode)
    # ------------------------------------------------------------------

    def _namespace_of(self, dataset_id: str) -> Optional[str]:
        """The registered job namespace of a dataset id, if any
        (caller holds the lock)."""
        namespace = namespace_of(dataset_id)
        return namespace if namespace in self._job_programs else None

    def register_job(
        self,
        namespace: str,
        program_spec: Optional[str] = None,
        program_args: Sequence[str] = (),
    ) -> MetricsRegistry:
        """Declare a job namespace on this backend.

        The program spec rides on every task descriptor of datasets
        under the namespace, so a shared slave pool can execute many
        programs; metrics of those tasks are additionally folded into
        an isolated per-job registry (returned here).
        """
        with self._lock:
            self._job_programs[namespace] = (
                program_spec,
                [str(a) for a in program_args],
            )
            registry = self._job_registries.setdefault(
                namespace, MetricsRegistry()
            )
        self.observability.emit(
            "job.registered", job_id=namespace, program=program_spec
        )
        return registry

    def job_registry(self, namespace: str) -> Optional[MetricsRegistry]:
        with self._lock:
            return self._job_registries.get(namespace)

    def cancel_namespace(
        self, namespace: str, reason: str = "job canceled"
    ) -> List[str]:
        """Fail every incomplete dataset of one job and drop its queued
        tasks — without touching any other job's state.  Waiters on the
        canceled datasets wake with ``dataset.error`` set, so the job's
        driver thread unwinds via the normal error path.  Returns the
        canceled dataset ids.
        """
        prefix = namespace + "."
        with self._lock:
            canceled = []
            for ds_id, dataset in self._datasets.items():
                if not ds_id.startswith(prefix):
                    continue
                if dataset.complete or dataset.error:
                    continue
                dataset.error = reason
                self.scheduler.cancel_dataset(ds_id)
                canceled.append(ds_id)
            self._cond.notify_all()
        self.observability.emit("job.cancel", job_id=namespace, datasets=len(canceled))
        return canceled

    def release_namespace(self, namespace: str) -> int:
        """Release a finished job: :meth:`remove_data` on each of its
        datasets, newest first (so none fails for a released input),
        then its program, dispatch count and affinity entries.  User
        outdirs are untouched; the per-job metrics registry is kept so
        the job's final numbers remain queryable.  Returns the number
        of datasets released.
        """
        prefix = namespace + "."
        with self._lock:
            ds_ids = [i for i in self._datasets if i.startswith(prefix)]
        for ds_id in reversed(ds_ids):
            self.remove_data(ds_id)
        with self._lock:
            self._job_programs.pop(namespace, None)
            self.scheduler.forget_job(namespace)
        return len(ds_ids)

    def job_status(self, namespace: str) -> Dict[str, Any]:
        """A per-job slice of :meth:`~Coordinator.status`: only this
        job's datasets, spans, and (isolated) metrics registry."""
        prefix = namespace + "."
        with self._lock:
            datasets = self._dataset_rows(prefix)
            registry = self._job_registries.get(namespace)
            snapshot = registry.snapshot() if registry is not None else {}
            dispatched = self.scheduler.job_dispatches.get(namespace, 0)
        view = self.observability.status_view(namespace=namespace)
        view.update(
            {
                "job_id": namespace,
                "datasets": datasets,
                "metrics": snapshot,
                "dispatched_tasks": dispatched,
            }
        )
        return view

    # ------------------------------------------------------------------
    # Liveness and lineage recovery
    # ------------------------------------------------------------------

    def lose_slave(self, slave_id: int, reason: str, strike: bool = False) -> None:
        """Stop scheduling onto a slave and requeue its task.  ``strike``
        charges that task one failed attempt: a forked slave that died
        running it is evidence against the task, where a missed ping is
        not."""
        with self._lock:
            record = self._slaves.get(slave_id)
            if record is None or not record.alive:
                return
            record.alive = False
            record.wakeup.notify_all()  # its waiting ``next`` answers quit
            # Counted before a strike can fail a dataset and wake its
            # waiters.
            self.observability.registry.counter("slaves.lost").inc()
            task = self._busy.pop(slave_id, None)
            reassigned = self.scheduler.remove_slave(slave_id)
            if strike and task is not None:
                self._strike(task, "killed its slave")
                self._note_requeued(task)
            recomputed = 0
            if self.data_plane == "http":
                recomputed = self._recover_lost_data(slave_id)
            alive = len(self.alive_slaves())
            self._cond.notify_all()
        record.client.close()
        self.observability.registry.gauge("slaves.alive").set(alive)
        self.observability.emit(
            "slave.lost",
            slave=slave_id,
            reason=reason,
            reassigned=len(reassigned),
            recomputed=recomputed,
        )
        if reassigned or recomputed:
            logger.warning(
                "slave %d lost (%s); reassigning %d tasks, "
                "re-executing %d for lost data",
                slave_id,
                reason,
                len(reassigned),
                recomputed,
            )
        self._dispatch()

    def task_failed(
        self, worker_id: int, dataset_id: str, task_index: int, message: str
    ) -> None:
        if self.data_plane == "http" and "FetchError" in message:
            # Evidence that a slave serving the task's input died: lose
            # those that do not answer a ping now, so lineage recovery
            # starts (and this failure is a free retry) before the
            # watchdog would notice.
            for record in self.alive_slaves():
                try:
                    record.client.ping()
                except Exception as exc:
                    self.lose_slave(record.id, f"ping after a failed fetch: {exc}")
        super().task_failed(worker_id, dataset_id, task_index, message)

    def fail_unfinished(self, reason: str) -> None:
        """Fail every unfinished dataset: no slave is left to run it."""
        with self._lock:
            for dataset in list(self._datasets.values()):
                if not (dataset.complete or dataset.error):
                    self._fail(dataset, reason)
            self._cond.notify_all()

    def _recover_lost_data(self, slave_id: int) -> int:
        """Lineage re-execution for the direct (http) data plane.

        Buckets served from a dead slave's data server are gone; any
        completed task that produced them must run again.  Caller
        holds the lock.  (The file data plane needs none of this —
        "storage on a filesystem for increased fault-tolerance",
        section IV-B.)
        """
        by_dataset: Dict[str, List[int]] = {}
        for (dataset_id, task_index), producer in self._producers.items():
            if producer != slave_id:
                continue
            dataset = self._datasets.get(dataset_id)
            if dataset is None:
                continue
            # User-facing output was written to a real filesystem path
            # (outdir), not the slave's ephemeral store.
            if getattr(dataset, "outdir", None):
                continue
            by_dataset.setdefault(dataset_id, []).append(task_index)
        recomputed = 0
        for dataset_id, task_indices in by_dataset.items():
            dataset = self._datasets[dataset_id]
            released = [
                dep_id
                for dep_id in (dataset.input_id, *dataset.blocking_ids)
                if dep_id not in self._datasets
            ]
            if released:
                # Its input is gone on purpose: the lost output cannot
                # be computed again.
                dataset.complete = False
                self._fail(
                    dataset,
                    f"output lost with slave {slave_id}; input dataset "
                    f"{released[0]} was released",
                )
                continue
            reset = self.scheduler.reset_tasks(dataset_id, task_indices)
            if reset:
                for task_index in task_indices:
                    dataset.remove_source(task_index)
                    self._producers.pop((dataset_id, task_index), None)
                dataset.complete = False
                # Consumers' queued tasks must not run against partial
                # input while the re-execution is in flight.
                self.scheduler.unmark_complete(dataset_id)
                recomputed += reset
        return recomputed

    def _watchdog_loop(self) -> None:
        while not self._stop_watchdog.wait(PING_INTERVAL):
            records = self.alive_slaves()
            self.observability.emit("heartbeat", alive=len(records))
            for record in records:
                if self._closed:
                    return
                started = time.perf_counter()
                try:
                    result = record.client.ping()
                except Exception as exc:
                    # 3-strike budget: a single transient timeout must
                    # not lose a healthy slave (mirrors the slave side's
                    # MASTER_FAILURES policy).
                    record.ping_failures += 1
                    if record.ping_failures >= PING_FAILURES:
                        self.lose_slave(
                            record.id,
                            f"ping failed {record.ping_failures} "
                            f"consecutive times: {exc}",
                        )
                    else:
                        logger.warning(
                            "slave %d ping failure %d/%d: %s",
                            record.id,
                            record.ping_failures,
                            PING_FAILURES,
                            exc,
                        )
                    continue
                rtt = time.perf_counter() - started
                record.ping_failures = 0
                # Slaves answer a ping with a throttled health sample,
                # or bare True between samples; the RTT joins either.
                sample = dict(result) if isinstance(result, dict) else {}
                sample["rtt_seconds"] = rtt
                with self._lock:
                    self._note_health(f"slave-{record.id}", sample)


class MasterInterface:
    """RPC surface exposed to slaves (``rpc_`` prefix is stripped)."""

    def __init__(self, backend: MasterBackend):
        # Weak: the backend owns the RPC server that owns this object,
        # and a strong reference back would make every closed master
        # (and the datasets it tracks) wait for the cycle collector.
        self.backend = weakref.proxy(backend)

    def rpc_signin(
        self, version: int, slave_host: str, slave_port: int, pid: int = 0
    ) -> int:
        address = format_address(slave_host, slave_port)
        return self.backend.slave_signin(version, address, pid)

    def rpc_done(
        self,
        slave_id: int,
        dataset_id: str,
        task_index: int,
        bucket_urls: Any,
        seconds: float = 0.0,
        metrics: Any = None,
    ) -> Any:
        self.backend.task_done(
            slave_id, dataset_id, task_index, bucket_urls, seconds, metrics
        )
        return self.backend.pull(slave_id)

    def rpc_failed(
        self, slave_id: int, dataset_id: str, task_index: int, message: str
    ) -> Any:
        self.backend.task_failed(slave_id, dataset_id, task_index, message)
        return self.backend.pull(slave_id)

    def rpc_next(self, slave_id: int) -> Any:
        return self.backend.pull(slave_id, NEXT_POLL)

    def rpc_status(self) -> Dict[str, Any]:
        return self.backend.status()
