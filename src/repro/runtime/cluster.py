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

import os
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.core import options as options_mod
from repro.core.job import Job
from repro.core.main import _finalize_run, configure_process
from repro.runtime.master import MasterBackend

#: Seconds a cluster launch waits for slaves to sign in.
SIGNIN_TIMEOUT = 30.0


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


class LocalCluster:
    """An in-process master plus ``n_slaves`` slave subprocesses.

    Use as a context manager; the master backend is available as
    ``cluster.backend`` once :meth:`start` has run.
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
        self.tmpdir = tmpdir or tempfile.mkdtemp(prefix="mrs_cluster_")
        self.opt_overrides = dict(opt_overrides or {})
        self.backend: Optional[MasterBackend] = None
        self.program: Any = None
        self.slaves: List[subprocess.Popen] = []

    def start(self) -> "LocalCluster":
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
        spec = program_spec(self.program_class)
        # Slaves re-parse the *same* argument list (program flags and
        # positional args both), exactly as if the same script had been
        # launched with --mrs slave on another node.  Anything that
        # affects map/reduce behaviour must therefore be a CLI flag,
        # not an opt_override (those only exist in the master process).
        extra = []
        if self.opt_overrides.get("seed"):
            extra += ["--mrs-seed", str(self.opt_overrides["seed"])]
        for _ in range(self.n_slaves):
            self.slaves.append(
                spawn_slave(
                    spec,
                    self.backend.rpc.address,
                    self.args,
                    self.tmpdir,
                    data_plane=self.data_plane,
                    extra_flags=extra,
                )
            )
        signed_in = self.backend.wait_for_slaves(
            self.n_slaves, timeout=SIGNIN_TIMEOUT
        )
        if signed_in < self.n_slaves:
            self.stop()
            raise ClusterError(
                f"only {signed_in}/{self.n_slaves} slaves signed in within "
                f"{SIGNIN_TIMEOUT}s"
            )
        return self

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
        process = self.slaves[index]
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)

    def stop(self) -> None:
        if self.backend is not None:
            self.backend.close()
            self.backend = None
        for process in self.slaves:
            if process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + 5
        for process in self.slaves:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
        self.slaves = []

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
