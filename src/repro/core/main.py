"""Program entry points.

``main(ProgramClass)`` is the one call a Mrs program makes (Program 1):
it parses options, instantiates the program, and dispatches to the
implementation selected with ``--mrs``.  ``run_program`` is the
programmatic equivalent used by tests, examples, and benchmarks.
"""

from __future__ import annotations

import logging
import sys
from typing import Any, List, Optional, Sequence

from repro.core import options as options_mod
from repro.core.job import Job

logger = logging.getLogger("repro")


def configure_process(opts) -> None:
    """Turn parsed options into process-wide state, before any shuffle
    code runs: ``--mrs-native`` and ``--mrs-zero-copy``.

    The one place that does so — every entry point that parses options
    (:func:`main`, :func:`run_program`, ``LocalCluster.start``) calls
    it.  Setting a mode also mirrors it into its environment variable
    (``MRS_NATIVE`` / ``MRS_ZERO_COPY``), the only two option->
    environment mirrors, so worker processes spawned later
    (multiprocess pool, slaves launched with the job's environment)
    resolve the same path.
    """
    from repro.io import serializers
    from repro.native import kernels

    kernels.configure_from_opts(opts)
    serializers.configure_zero_copy_from_opts(opts)


def _configure_logging(opts) -> None:
    level = logging.WARNING
    if getattr(opts, "debug", False):
        level = logging.DEBUG
    elif getattr(opts, "verbose", False):
        level = logging.INFO
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def main(program_class: Any, argv: Optional[Sequence[str]] = None) -> int:
    """Parse the command line and run ``program_class``.

    Returns the program's exit status; ``mrs.main`` in the paper.  Call
    as the last line of a program script::

        if __name__ == '__main__':
            mrs.main(WordCount)
    """
    opts, args = options_mod.parse_options(program_class, argv)
    _configure_logging(opts)
    configure_process(opts)
    impl = opts.mrs_impl

    if impl == "slave":
        # A slave never runs the program's run(); it serves tasks.
        from repro.runtime.slave import run_slave

        return run_slave(program_class, opts, args)

    if impl == "serve":
        # Persistent job server: the program class is registered as a
        # submittable program; run() is driven per submission.
        from repro.service.server import run_serve

        return run_serve(program_class, opts, args)

    program = program_class(opts, args)

    if impl == "bypass":
        from repro.runtime.bypass import run_bypass

        return run_bypass(program)

    from repro.util.signals import GracefulExit, install_graceful_exit

    backend = _make_backend(impl, program, opts, args)
    ticker = _maybe_start_ticker(backend, opts)
    status_server = _maybe_start_status_server(backend, opts)
    previous_signals = install_graceful_exit()
    try:
        job = Job(backend, program)
        try:
            status = int(program.run(job) or 0)
        except GracefulExit as exc:
            # First SIGTERM/SIGINT: flush observability outputs and
            # shut the cluster down cleanly (the finally below), then
            # report success — the operator asked us to stop.
            logger.warning(
                "received signal %d; shutting down gracefully", exc.signum
            )
            _finalize_run(backend, opts)
            return 0
        _finalize_run(backend, opts)
        return status
    finally:
        from repro.util.signals import restore

        restore(previous_signals)
        if ticker is not None:
            ticker.stop()
        if status_server is not None:
            status_server.shutdown()
        backend.close()
        _close_transfer_pool()


def _close_transfer_pool() -> None:
    """Close the process-global pooled transfer connections (graceful
    shutdown: no half-open keep-alive sockets left behind)."""
    from repro.comm import transfer

    try:
        transfer.get_pool().close()
    except Exception:  # pragma: no cover - best-effort cleanup
        pass


def _maybe_dump_metrics(backend: Any, opts: Any) -> Optional[str]:
    """Write the backend's metrics report if --mrs-metrics-json was set."""
    path = getattr(opts, "metrics_json", None)
    if not path:
        return None
    from repro.observability import export

    report = backend.metrics()
    export.write_json(report, path)
    logger.info("metrics report written to %s", path)
    return path


def _finalize_run(backend: Any, opts: Any) -> None:
    """End-of-job observability outputs: the metrics report
    (--mrs-metrics-json), the Perfetto timeline (--mrs-trace), and the
    event-log flush (--mrs-event-log)."""
    _maybe_dump_metrics(backend, opts)
    events = getattr(
        getattr(backend, "observability", None), "events", None
    )
    if events is None:
        return
    trace_path = getattr(opts, "trace", None)
    if trace_path:
        from repro.observability import timeline

        timeline.write_trace(
            timeline.trace_from_events(events.snapshot()), trace_path
        )
        logger.info("timeline trace written to %s", trace_path)
    events.close()


def _maybe_start_ticker(backend: Any, opts: Any) -> Optional[Any]:
    """Start the --mrs-progress stderr ticker, if requested."""
    if not getattr(opts, "progress", False):
        return None
    from repro.observability.progress import ProgressTicker

    ticker = ProgressTicker(backend)
    ticker.start()
    return ticker


def _maybe_start_status_server(backend: Any, opts: Any) -> Optional[Any]:
    """Start the --mrs-status-http JSON endpoint, if requested."""
    port = getattr(opts, "status_http", None)
    if port is None:
        return None
    from repro.comm.dataserver import StatusServer

    server = StatusServer(
        backend, host=getattr(opts, "host", None) or "127.0.0.1", port=port
    )
    logger.info("status endpoint at %s", server.url)
    return server


def _make_backend(impl: str, program: Any, opts, args: Sequence[str] = ()) -> Any:
    if impl == "serial":
        from repro.runtime.serial import SerialBackend

        return SerialBackend(program)
    if impl == "mockparallel":
        from repro.runtime.mockparallel import MockParallelBackend

        return MockParallelBackend(
            program, tmpdir=getattr(opts, "tmpdir", None), opts=opts
        )
    if impl == "multiprocess":
        from repro.runtime.multiprocess import MultiprocessBackend

        return MultiprocessBackend(program, opts, list(args))
    if impl == "master":
        from repro.runtime.master import MasterBackend

        return MasterBackend(program, opts)
    raise ValueError(f"unknown implementation {impl!r}")


def run_program(
    program_class: Any,
    args: Optional[List[str]] = None,
    impl: str = "serial",
    **opt_overrides: Any,
) -> Any:
    """Run a program in-process and return the program instance.

    The returned instance exposes whatever its ``run`` recorded —
    typically ``program.output_data`` for the default run.  This is the
    entry point tests and benchmarks use::

        program = run_program(WordCount, ['in.txt', 'out'], impl='serial')
        pairs = program.output_data.data()
    """
    args = list(args or [])
    flags = ["--mrs", impl]
    opts, positional = options_mod.parse_options(program_class, flags + args)
    for key, value in opt_overrides.items():
        setattr(opts, key, value)
    configure_process(opts)
    program = program_class(opts, positional)

    if impl == "bypass":
        from repro.runtime.bypass import run_bypass

        run_bypass(program)
        return program

    backend = _make_backend(impl, program, opts, positional)
    try:
        job = Job(backend, program)
        status = program.run(job)
        if status not in (None, 0):
            raise RuntimeError(
                f"{program_class.__name__} exited with status {status}"
            )
        _finalize_run(backend, opts)
        # Expose the metrics report on the returned instance so tests
        # and benchmarks can read it after the backend is closed.
        program.metrics_report = backend.metrics()
        return program
    finally:
        backend.close()


def exit_main(program_class: Any, argv: Optional[Sequence[str]] = None) -> None:
    """``main`` variant that exits the interpreter with the status."""
    sys.exit(main(program_class, argv))
