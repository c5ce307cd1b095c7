"""Slave side of the distributed implementation.

"A slave needs only the master's address and port to connect" (section
IV).  A slave:

1. re-instantiates the user's program class locally (user code never
   crosses the wire — only method *names* inside task descriptors),
2. starts a tiny XML-RPC server so the master can push tasks,
3. optionally starts an HTTP data server over its local output
   directory (``--mrs-data-plane http``),
4. signs in, then executes one task at a time from its queue.

One slave uses one core; a node contributes N cores by running N slave
processes — processes rather than threads because of the GIL
(section IV-B).
"""

from __future__ import annotations

import logging
import os
import queue
import shutil
import signal as signal_mod
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.comm import protocol, transfer
from repro.comm.dataserver import DataServer
from repro.comm.rpc import RpcServer, rpc_client
from repro.observability import Observability
from repro.observability.profiling import profiler_from_opts
from repro.observability.telemetry import HealthSampler
from repro.runtime.executor import execute_descriptor

logger = logging.getLogger("repro.slave")

#: How long the main loop sleeps on an empty queue before re-checking
#: for quit / master liveness.
IDLE_POLL = 0.2

#: Consecutive master ping failures before the slave gives up and exits
#: (the master is gone; PBS will reap us anyway, but exit cleanly).
MASTER_PING_FAILURES = 3

#: Seconds between idle master liveness checks.
MASTER_PING_INTERVAL = 5.0


class SlaveInterface:
    """RPC surface exposed to the master."""

    def __init__(self, slave: "Slave"):
        self.slave = slave

    def rpc_start_task(self, descriptor: Dict[str, Any]) -> bool:
        protocol.check_task_descriptor(descriptor)
        self.slave.task_queue.put(descriptor)
        return True

    def rpc_remove_data(self, dataset_id: str) -> bool:
        self.slave.remove_data(dataset_id)
        return True

    def rpc_quit(self) -> bool:
        self.slave.quit_event.set()
        # Unblock the main loop promptly.
        self.slave.task_queue.put(None)
        return True

    def rpc_ping(self) -> Any:
        # A throttled health sample answers the ping — the slave's
        # latest CPU/RSS/fd/disk numbers for free on the heartbeats the
        # master already sends; between samples, a bare truthy value.
        sample = self.slave.sampler.maybe_sample()
        return True if sample is None else sample


class Slave:
    """Slave runtime state and main loop."""

    def __init__(self, program: Any, opts: Any):
        if not getattr(opts, "master", None):
            raise ValueError("slave requires --mrs-master HOST:PORT")
        self.program = program
        self.opts = opts
        self.master_address = opts.master
        self.task_queue: "queue.Queue[Optional[Dict[str, Any]]]" = queue.Queue()
        self.quit_event = threading.Event()
        self.data_plane = getattr(opts, "data_plane", "file") or "file"
        self.observability = Observability(role="slave")
        #: The one client for slave->master calls, built before anything
        #: that can fail, so :meth:`shutdown` can always close it.
        self.master = rpc_client(
            self.master_address,
            timeout=30.0,
            registry=self.observability.registry,
        )
        # Mirror the transfer plane's counters into the slave's live
        # registry.
        transfer.install_registry(self.observability.registry)
        #: --mrs-profile-tasks N: keep the N slowest tasks' profiles.
        self.profiler = profiler_from_opts(opts)
        #: First completion ships the boot-to-first-task gauge once.
        self._reported_startup = False

        self._owns_tmpdir = opts.tmpdir is None
        base_tmp = opts.tmpdir or tempfile.mkdtemp(prefix="mrs_slave_")
        #: Slave-local output directory (per-process to avoid collisions
        #: when several slaves share a tmpdir).
        self.localdir = os.path.join(base_tmp, f"slave_{os.getpid()}")
        #: Health samples piggyback on pings and done RPCs: disk free
        #: of the slave's own run dir, task throughput from its
        #: registry's completion count.
        completed = self.observability.registry.counter("tasks.completed")
        self.sampler = HealthSampler(
            rundir=self.localdir, task_counter=lambda: completed.value
        )

        self.rpc: Optional[RpcServer] = None
        self.dataserver: Optional[DataServer] = None
        try:
            os.makedirs(self.localdir, exist_ok=True)
            self.rpc = RpcServer(
                SlaveInterface(self),
                host="127.0.0.1",
                port=0,
                registry=self.observability.registry,
            )
            if self.data_plane == "http":
                self.dataserver = DataServer(self.localdir, host="127.0.0.1")
        except BaseException:
            # A failed start closes what it opened: the listener and
            # the run directory.
            self.shutdown()
            raise

        self.slave_id: Optional[int] = None
        #: Programs resolved from task descriptors, keyed by
        #: (program_spec, args tuple).  Service mode multiplexes many
        #: programs over one slave pool; the boot-time ``self.program``
        #: stays the default for descriptors without a spec.
        self._programs: Dict[Tuple[str, Tuple[str, ...]], Any] = {}

    # -- master communication -------------------------------------------

    def signin(self) -> int:
        self.slave_id = int(
            self.master.signin(
                protocol.PROTOCOL_VERSION,
                self.rpc.host,
                self.rpc.port,
                os.getpid(),
            )
        )
        logger.info(
            "slave %d signed in to %s", self.slave_id, self.master_address
        )
        return self.slave_id

    # -- task execution ------------------------------------------------------

    def _program_for(self, descriptor: Dict[str, Any]) -> Any:
        """The program instance a task runs against.

        Descriptors carrying a ``program_spec`` (``module:Class``, from
        a job server) are resolved and instantiated locally — user code
        still never crosses the wire, only names — and cached per
        (spec, args) so each job pays the import once per slave.
        """
        spec = descriptor.get("program_spec")
        if not spec:
            return self.program
        args = tuple(str(a) for a in (descriptor.get("program_args") or ()))
        program = self._programs.get((spec, args))
        if program is None:
            from repro.core import options as options_mod
            from repro.runtime.slave_boot import resolve_program

            program_class = resolve_program(spec)
            opts, positional = options_mod.parse_options(
                program_class, list(args)
            )
            program = program_class(opts, positional)
            self._programs[(spec, args)] = program
            logger.info("slave resolved program %s%r", spec, args)
        return program

    def execute(self, descriptor: Dict[str, Any]) -> None:
        dataset_id = descriptor["dataset_id"]
        task_index = int(descriptor["task_index"])
        # Slave startup is role-appropriately "boot to first task":
        # seconds from process construction to the first task arriving.
        boot_seconds = self.observability.mark_startup_complete()
        try:
            urls, seconds, metrics = execute_descriptor(
                self._program_for(descriptor),
                descriptor,
                "slave",
                localdir=self.localdir,
                url_for=self.dataserver.url_for if self.dataserver else None,
                profiler=self.profiler,
                sampler=self.sampler,
                # Shipped once, so the master's report can break down
                # cluster spin-up per slave under ``sources``.
                boot_seconds=None if self._reported_startup else boot_seconds,
            )
            self._reported_startup = True
            self.observability.registry.counter("tasks.completed").inc()
            self.observability.registry.histogram("task.seconds").observe(
                seconds
            )
            self.master.done(
                self.slave_id, dataset_id, task_index, urls, seconds, metrics
            )
        except Exception as exc:
            logger.warning(
                "task (%s, %d) failed: %r", dataset_id, task_index, exc
            )
            self.observability.registry.counter("tasks.failed").inc()
            try:
                self.master.failed(
                    self.slave_id, dataset_id, task_index, repr(exc)
                )
            except Exception:
                # Master unreachable; the main loop's liveness check
                # will notice and exit.
                pass

    def remove_data(self, dataset_id: str) -> None:
        path = os.path.join(self.localdir, dataset_id)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)

    # -- main loop ------------------------------------------------------------

    def install_signal_handlers(self) -> None:
        """Graceful SIGTERM/SIGINT: finish the in-flight task (the
        handler only sets the quit event, so user code is never
        interrupted mid-record), report it, then exit 0.  A second
        signal falls back to the default disposition and kills the
        process.  Main-thread only; a no-op elsewhere.
        """
        if threading.current_thread() is not threading.main_thread():
            return

        def handler(signum, frame):
            signal_mod.signal(signum, previous.get(signum, signal_mod.SIG_DFL))
            logger.warning(
                "slave received signal %d; draining and exiting", signum
            )
            self.quit_event.set()
            self.task_queue.put(None)

        previous = {}
        for signum in (signal_mod.SIGTERM, signal_mod.SIGINT):
            try:
                previous[signum] = signal_mod.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                return

    def run(self) -> int:
        self.install_signal_handlers()
        self.signin()
        ping_failures = 0
        last_ping = time.monotonic()
        try:
            while not self.quit_event.is_set():
                try:
                    descriptor = self.task_queue.get(timeout=IDLE_POLL)
                except queue.Empty:
                    now = time.monotonic()
                    if now - last_ping >= MASTER_PING_INTERVAL:
                        last_ping = now
                        try:
                            self.master.ping(self.slave_id)
                            ping_failures = 0
                        except Exception:
                            ping_failures += 1
                            if ping_failures >= MASTER_PING_FAILURES:
                                logger.warning(
                                    "master unreachable; slave exiting"
                                )
                                return 1
                    continue
                if descriptor is None:
                    continue
                self.execute(descriptor)
            return 0
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        for server in (self.rpc, self.dataserver):
            if server is not None:
                server.shutdown()
        # Close the keep-alive connections, the master's and the
        # process-global transfer pool's, so a graceful exit leaves no
        # half-open sockets (ConnectionPool.close already ignores
        # per-connection errors).
        self.master.close()
        transfer.get_pool().close()
        if self._owns_tmpdir:
            shutil.rmtree(os.path.dirname(self.localdir), ignore_errors=True)
        else:
            # The per-pid localdir is ours even inside a caller-owned
            # shared tmpdir; leave the shared dir itself alone.
            shutil.rmtree(self.localdir, ignore_errors=True)


def run_slave(program_class: Any, opts: Any, args: List[str]) -> int:
    """Entry point used by ``main`` for ``--mrs slave``."""
    program = program_class(opts, args)
    slave = Slave(program, opts)
    return slave.run()
