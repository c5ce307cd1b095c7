"""Local cluster launching.

These helpers reproduce the *logic* of the paper's startup scripts
(Programs 3 and 4) on a single machine: the master comes up first and
publishes its address, then slaves are started with nothing but that
address.  On a real cluster the same two steps are driven by PBS or
pssh; here they are subprocesses.

:func:`run_on_cluster` is the one-call API used by tests, examples and
benchmarks: it runs the program's ``run`` in the current process as the
master and spawns ``n_slaves`` slave subprocesses.
"""

from __future__ import annotations

import atexit
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.core import options as options_mod
from repro.core.job import Job
from repro.core.main import _finalize_run, configure_process
from repro.runtime.master import MasterBackend, resolve_slave_wait_timeout

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


class SlaveGroup:
    """A master plus the slave subprocesses launched against it.

    The one way a launch starts and stops slaves (:class:`LocalCluster`
    and the job server's pool both use it): :meth:`spawn` starts them
    with :func:`spawn_slave` and waits with
    :meth:`MasterBackend.wait_for_slaves`; :meth:`close` closes the
    master — its ``quit`` RPCs let signed-in slaves exit by themselves —
    then reaps every slave against one deadline, then terminates and at
    last kills the stragglers.
    """

    def __init__(self, backend: MasterBackend):
        self.backend = backend
        self.processes: List[subprocess.Popen] = []

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

    def close(self) -> None:
        self.backend.close()
        stragglers = _reap(self.processes, STOP_GRACE)
        for process in stragglers:
            process.terminate()
        for process in _reap(stragglers, STOP_GRACE):
            process.kill()
            process.wait()
        self.processes = []


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
