"""Local cluster launching.

These helpers reproduce the *logic* of the paper's startup scripts
(Programs 3 and 4) on a single machine: the master comes up first and
publishes its address, then slaves are started with nothing but that
address.  On a real cluster the same two steps are driven by PBS or
pssh; here they are subprocesses, or children forked from the master.

:func:`run_on_cluster` is the one-call API used by tests, examples and
benchmarks: it runs the program's ``run`` in the current process as the
master and spawns ``n_slaves`` slave subprocesses.
:class:`MultiprocessBackend` (``--mrs multiprocess``) is the same master
with its slaves forked instead: "a node contributes N cores by running
N slave processes" (section IV-B), with no cluster set-up at all.
"""

from __future__ import annotations

import atexit
import copy
import logging
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core import options as options_mod
from repro.core.job import Job
from repro.core.main import _finalize_run, configure_process
from repro.runtime.master import MasterBackend, resolve_slave_wait_timeout
from repro.runtime.slave import run_slave

logger = logging.getLogger("repro.cluster")

#: Seconds slaves get to exit by themselves once the master has closed,
#: and again after SIGTERM before SIGKILL.
STOP_GRACE = 5.0


class ClusterError(Exception):
    pass


def program_spec(program_class: type) -> str:
    """The ``module:Class`` spec slave_boot uses to import the program."""
    module = program_class.__module__
    if module in ("__main__", "builtins"):
        raise ClusterError(
            f"{program_class.__name__} must live in an importable module "
            "to run on a cluster (slaves re-import it by name)"
        )
    return f"{module}:{program_class.__qualname__}"


def spawn_slave(
    spec: str,
    master_address: str,
    args: Sequence[str],
    tmpdir: str,
    data_plane: str = "file",
    extra_flags: Sequence[str] = (),
) -> subprocess.Popen:
    command = [
        sys.executable,
        "-m",
        "repro.runtime.slave_boot",
        spec,
        "--mrs",
        "slave",
        "--mrs-master",
        master_address,
        "--mrs-tmpdir",
        tmpdir,
        "--mrs-data-plane",
        data_plane,
        *extra_flags,
        *args,
    ]
    return subprocess.Popen(
        command,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )


class ForkedSlave:
    """A slave forked from this process, with the part of
    :class:`subprocess.Popen` that :class:`SlaveGroup` uses.

    A thread waits for the child to exit, reaps it and calls
    ``on_exit``, so its death is seen at once rather than after the
    watchdog's failed pings.  Signals and the reap share a lock: a
    signal never reaches a recycled pid.
    """

    def __init__(self, pid: int, on_exit: Callable[["ForkedSlave"], None]):
        self.pid = pid
        self.returncode: Optional[int] = None
        self._lock = threading.Lock()
        self._waiter = threading.Thread(
            target=self._wait_exit,
            args=(on_exit,),
            name=f"slave-waiter-{pid}",
            daemon=True,
        )
        self._waiter.start()

    def _wait_exit(self, on_exit: Callable[["ForkedSlave"], None]) -> None:
        # WNOWAIT leaves the child a zombie, holding its pid, until the
        # reap under the lock.
        os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOWAIT)
        with self._lock:
            status = os.waitpid(self.pid, 0)[1]
            self.returncode = os.waitstatus_to_exitcode(status)
        on_exit(self)

    def wait(self, timeout: Optional[float] = None) -> Optional[int]:
        self._waiter.join(timeout)
        if self._waiter.is_alive():
            raise subprocess.TimeoutExpired(f"slave {self.pid}", timeout)
        return self.returncode

    def send_signal(self, signum: int) -> None:
        with self._lock:
            if self.returncode is None:
                os.kill(self.pid, signum)

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


class SlaveGroup:
    """A master plus the slave processes launched against it.

    The one way a launch starts and stops slaves: :class:`LocalCluster`
    and the job server's pool start them with :meth:`spawn`,
    :class:`MultiprocessBackend` with :meth:`fork`, and both wait with
    :meth:`MasterBackend.wait_for_slaves`.  :meth:`close` closes the
    master — its ``quit`` RPCs let signed-in slaves exit by themselves —
    then :meth:`reap` waits for every slave against one deadline, then
    terminates and at last kills the stragglers.
    """

    def __init__(self, backend: MasterBackend):
        # Weak: a MultiprocessBackend owns its group, and a strong
        # reference back would leave every closed one to the cycle
        # collector.
        self.backend = weakref.proxy(backend)
        self.processes: List[Any] = []
        #: Guards ``processes`` and the fork decision against :meth:`reap`.
        self._lock = threading.Lock()
        self._reaping = False
        #: What :meth:`fork` forks a replacement from, and how many more
        #: replacements it may fork.
        self._forking: Any = None
        self._respawns_left = 0
        #: Every forked slave is dead and none may be forked any more.
        self.all_died = False

    def spawn(
        self,
        count: int,
        spec: str,
        args: Sequence[str] = (),
        extra_flags: Sequence[str] = (),
    ) -> int:
        """Start ``count`` slaves; returns how many slaves are signed in
        once ``count`` more have, or the sign-in wait ran out."""
        target = len(self.backend.alive_slaves()) + count
        for _ in range(count):
            self.processes.append(
                spawn_slave(
                    spec,
                    self.backend.rpc.address,
                    args,
                    self.backend.tmpdir,
                    data_plane=self.backend.data_plane,
                    extra_flags=extra_flags,
                )
            )
        return self.backend.wait_for_slaves(target)

    def fork(
        self,
        count: int,
        program_class: type,
        opts: Any,
        args: Sequence[str] = (),
    ) -> int:
        """Fork ``count`` slaves of ``program_class``; returns what
        :meth:`spawn` returns.

        Each child builds the program from ``opts`` with ``--mrs-master``
        set to this master, runs :meth:`Slave.run` and ends with
        ``os._exit``; it never imports the class by name, so one defined
        in ``__main__`` runs too.  A forked slave that dies is lost at
        once, its task charged one strike, and replaced, at most
        ``max(4, 2 * count)`` times; with none left, every unfinished
        dataset fails.
        """
        opts = copy.copy(opts)
        opts.mrs_impl = "slave"
        opts.master = self.backend.rpc.address
        opts.tmpdir = self.backend.tmpdir
        self._forking = (program_class, opts, list(args))
        self._respawns_left = max(4, 2 * count)
        target = len(self.backend.alive_slaves()) + count
        with self._lock:
            for _ in range(count):
                self._fork_one()
        return self.backend.wait_for_slaves(target)

    def _fork_one(self) -> None:
        """Fork one slave (caller holds ``_lock``)."""
        program_class, opts, args = self._forking
        # Else the child would write the parent's buffered output again.
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # Its own session, as an exec'd slave: a terminal's ^C
                # reaches the master, whose close() quits the slaves.
                os.setsid()
                code = run_slave(program_class, opts, list(args))
            except BaseException:
                logger.exception("forked slave failed")
            finally:
                os._exit(code)
        self.processes.append(ForkedSlave(pid, self._exited))

    def _exited(self, process: ForkedSlave) -> None:
        """A forked slave died (on its waiter thread): lose it, then
        fork a replacement, or fail what can no longer run."""
        backend = self.backend
        if backend._closed:
            return
        for record in backend.alive_slaves():
            if record.pid == process.pid:
                reason = f"exit status {process.returncode}"
                backend.lose_slave(record.id, reason, strike=True)
        with self._lock:
            if self._reaping or backend._closed:
                return
            if self._respawns_left > 0:
                self._respawns_left -= 1
                self._fork_one()
                return
            if any(p.returncode is None for p in self.processes):
                return
            self.all_died = True
        backend.fail_unfinished("all workers died")

    def close(self) -> None:
        self.backend.close()
        self.reap()

    def reap(self) -> None:
        """Wait for every slave against one deadline, then terminate
        and at last kill the stragglers; forks no replacement after."""
        with self._lock:
            self._reaping = True
            processes, self.processes = self.processes, []
        stragglers = _reap(processes, STOP_GRACE)
        for process in stragglers:
            process.terminate()
        for process in _reap(stragglers, STOP_GRACE):
            process.kill()
            process.wait()


def _reap(
    processes: Sequence[subprocess.Popen], timeout: float
) -> List[subprocess.Popen]:
    """Wait for ``processes`` against one deadline; returns those still
    running when it passes."""
    deadline = time.monotonic() + timeout
    running = []
    for process in processes:
        try:
            process.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            running.append(process)
    return running


class LocalCluster:
    """An in-process master plus ``n_slaves`` slave subprocesses.

    Use as a context manager; the master backend is available as
    ``cluster.backend`` once :meth:`start` has run.  A run directory the
    cluster creates itself is removed at interpreter exit, not at
    :meth:`stop`: callers read outputs written under it after the
    cluster has stopped.
    """

    def __init__(
        self,
        program_class: type,
        args: Optional[List[str]] = None,
        n_slaves: int = 2,
        data_plane: str = "file",
        tmpdir: Optional[str] = None,
        opt_overrides: Optional[Dict[str, Any]] = None,
    ):
        self.program_class = program_class
        self.args = list(args or [])
        self.n_slaves = n_slaves
        self.data_plane = data_plane
        self._owns_tmpdir = tmpdir is None
        self.tmpdir = tmpdir or tempfile.mkdtemp(prefix="mrs_cluster_")
        if self._owns_tmpdir:
            atexit.register(shutil.rmtree, self.tmpdir, ignore_errors=True)
        self.opt_overrides = dict(opt_overrides or {})
        self.backend: Optional[MasterBackend] = None
        self.program: Any = None
        self._group: Optional[SlaveGroup] = None

    def start(self) -> "LocalCluster":
        """Start the master, then the slaves; a start that fails stops
        whatever it opened (and removes a run directory it created)
        before the exception propagates."""
        try:
            self._start()
        except BaseException:
            self.stop()
            if self._owns_tmpdir:
                shutil.rmtree(self.tmpdir, ignore_errors=True)
            raise
        return self

    def _start(self) -> None:
        spec = program_spec(self.program_class)
        flags = [
            "--mrs",
            "master",
            "--mrs-tmpdir",
            self.tmpdir,
            "--mrs-data-plane",
            self.data_plane,
        ]
        opts, positional = options_mod.parse_options(
            self.program_class, flags + self.args
        )
        for key, value in self.opt_overrides.items():
            setattr(opts, key, value)
        configure_process(opts)
        self.program = self.program_class(opts, positional)
        self.backend = MasterBackend(self.program, opts)
        self._group = SlaveGroup(self.backend)
        # Slaves re-parse the *same* argument list (program flags and
        # positional args both), exactly as if the same script had been
        # launched with --mrs slave on another node.  Anything that
        # affects map/reduce behaviour must therefore be a CLI flag,
        # not an opt_override (those only exist in the master process).
        extra = []
        if self.opt_overrides.get("seed"):
            extra += ["--mrs-seed", str(self.opt_overrides["seed"])]
        signed_in = self._group.spawn(
            self.n_slaves, spec, self.args, extra_flags=extra
        )
        if signed_in < self.n_slaves:
            raise ClusterError(
                f"only {signed_in}/{self.n_slaves} slaves signed in within "
                f"{resolve_slave_wait_timeout(opts)}s"
            )

    def run(self) -> Any:
        """Run the program's ``run`` against the cluster; returns the
        program instance (with ``output_data`` etc. populated)."""
        assert self.backend is not None, "call start() first"
        job = Job(self.backend, self.program)
        status = self.program.run(job)
        if status not in (None, 0):
            raise ClusterError(
                f"{self.program_class.__name__} exited with {status}"
            )
        # Same end-of-job observability outputs as main()/run_program:
        # metrics report, timeline trace, event-log flush.
        _finalize_run(self.backend, self.backend.opts)
        self.program.metrics_report = self.backend.metrics()
        return self.program

    def kill_slave(self, index: int) -> None:
        """Kill one slave process (failure-injection hook for tests)."""
        assert self._group is not None, "call start() first"
        process = self._group.processes[index]
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)

    def stop(self) -> None:
        if self._group is not None:
            self._group.close()
        self._group = None
        self.backend = None

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class MultiprocessBackend(MasterBackend):
    """``--mrs multiprocess``: this process is the master of
    ``--mrs-procs`` slaves forked from it (0 = one per CPU core), which
    exchange data through the shared-tmpdir file plane.  The constructor
    returns once every slave has signed in, so ``default_splits`` never
    depends on timing."""

    role = "multiprocess"
    tmpdir_prefix = "mrs_mp_"

    def __init__(self, program: Any, opts: Any, args: Sequence[str] = ()):
        super().__init__(program, opts)
        self.n_procs = opts.procs or os.cpu_count() or 1
        self.group = SlaveGroup(self)
        try:
            signed_in = self.group.fork(self.n_procs, type(program), opts, args)
            if signed_in < self.n_procs:
                raise ClusterError(
                    f"only {signed_in}/{self.n_procs} forked slaves signed "
                    f"in within {resolve_slave_wait_timeout(opts)}s"
                )
        except BaseException:
            self.close()
            raise

    @property
    def default_splits(self) -> int:
        return getattr(self.opts, "reduce_tasks", 0) or self.n_procs

    def submit(self, dataset: Any, job: Job) -> None:
        super().submit(dataset, job)
        # Nothing would ever run it.
        if self.group.all_died:
            self.fail_unfinished("all workers died")

    def _shutdown_transport(self) -> None:
        super()._shutdown_transport()
        self.group.reap()


def run_on_cluster(
    program_class: type,
    args: Optional[List[str]] = None,
    n_slaves: int = 2,
    data_plane: str = "file",
    **opt_overrides: Any,
) -> Any:
    """One-call distributed run; returns the finished program instance."""
    with LocalCluster(
        program_class,
        args=args,
        n_slaves=n_slaves,
        data_plane=data_plane,
        opt_overrides=opt_overrides,
    ) as cluster:
        return cluster.run()
