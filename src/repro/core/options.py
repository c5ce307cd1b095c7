"""Command-line option handling.

Mrs's whole configuration story is "a short list of command-line
options" (section IV) — no config files, no daemons.  Framework options
are namespaced with ``--mrs-`` so they never collide with program
options added via ``Program.update_parser``.
"""

from __future__ import annotations

import argparse
from typing import Any, List, Optional, Sequence, Tuple

#: Implementation names accepted by ``--mrs`` (case-insensitive).
IMPLEMENTATIONS = (
    "serial",
    "bypass",
    "mockparallel",
    "multiprocess",
    "master",
    "slave",
    "serve",
)


def make_parser(program_class: Any = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=getattr(program_class, "__doc__", None) or "Mrs program",
        conflict_handler="resolve",
        # A removed flag must be a usage error, not a silent prefix of
        # a surviving one (--mrs-profile of --mrs-profile-tasks).
        allow_abbrev=False,
    )
    group = parser.add_argument_group("Mrs options")
    group.add_argument(
        "-I",
        "--mrs",
        dest="mrs_impl",
        default="serial",
        metavar="IMPL",
        help=f"execution implementation, one of {', '.join(IMPLEMENTATIONS)}",
    )
    group.add_argument(
        "--mrs-verbose",
        dest="verbose",
        action="store_true",
        help="informational logging",
    )
    group.add_argument(
        "--mrs-debug",
        dest="debug",
        action="store_true",
        help="debug logging",
    )
    group.add_argument(
        "--mrs-tmpdir",
        dest="tmpdir",
        default=None,
        metavar="DIR",
        help="directory for intermediate data (shared across slaves "
        "for filesystem-based data exchange)",
    )
    group.add_argument(
        "--mrs-seed",
        dest="seed",
        type=int,
        default=0,
        metavar="N",
        help="program-wide random seed (first offset of every stream)",
    )
    group.add_argument(
        "--mrs-reduce-tasks",
        dest="reduce_tasks",
        type=int,
        default=0,
        metavar="N",
        help="number of reduce tasks (0 = implementation default)",
    )
    group.add_argument(
        "--mrs-procs",
        dest="procs",
        type=int,
        default=0,
        metavar="N",
        help="multiprocess: number of worker processes "
        "(0 = one per CPU core)",
    )
    group.add_argument(
        "--mrs-start-method",
        dest="start_method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocess: how worker processes are started "
        "(default: the platform's multiprocessing default)",
    )
    group.add_argument(
        "--mrs-port",
        dest="port",
        type=int,
        default=0,
        metavar="PORT",
        help="master: RPC listen port (0 = ephemeral)",
    )
    group.add_argument(
        "--mrs-runfile",
        dest="runfile",
        default=None,
        metavar="FILE",
        help="master: write host:port here once listening "
        "(the slave-startup handshake of Program 3)",
    )
    group.add_argument(
        "--mrs-master",
        dest="master",
        default=None,
        metavar="HOST:PORT",
        help="slave: master address (a slave needs nothing else)",
    )
    group.add_argument(
        "--mrs-data-plane",
        dest="data_plane",
        choices=("file", "http"),
        default="file",
        help="intermediate data exchange: shared filesystem (fault-"
        "tolerant) or direct HTTP between slaves (fast)",
    )
    group.add_argument(
        "--mrs-zero-copy",
        dest="zero_copy",
        choices=("on", "off"),
        default=None,
        help="buffer-protocol fast paths for large values (scatter "
        "writes, mmap reads, sendfile) for serializers that support "
        "them, e.g. 'numpy'; outputs are byte-identical either way "
        "(default: MRS_ZERO_COPY or on)",
    )
    group.add_argument(
        "--mrs-no-affinity",
        dest="no_affinity",
        action="store_true",
        help="disable iteration task affinity in the scheduler "
        "(ablation knob)",
    )
    group.add_argument(
        "--mrs-host",
        dest="host",
        default=None,
        metavar="HOST",
        help="interface for the master's servers (default 127.0.0.1)",
    )
    group.add_argument(
        "--mrs-metrics-json",
        dest="metrics_json",
        default=None,
        metavar="PATH",
        help="dump the job's aggregate metrics report (startup time, "
        "per-phase wall clock, per-task spans, per-operation overhead) "
        "as JSON to PATH on job exit",
    )
    group.add_argument(
        "--mrs-event-log",
        dest="event_log",
        default=None,
        metavar="PATH",
        help="append every runtime event (task/dataset lifecycle, "
        "scheduler decisions, failures, heartbeats) to PATH as "
        "crash-safe JSONL; several processes may share one file "
        "(lines carry pid/role/sequence fields)",
    )
    group.add_argument(
        "--mrs-progress",
        dest="progress",
        action="store_true",
        help="live stderr ticker: tasks done/total, ETA from the "
        "task-duration histogram, live overhead fraction",
    )
    group.add_argument(
        "--mrs-status-http",
        dest="status_http",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a read-only status endpoint on PORT (GET /status, "
        "/metrics [Prometheus text; ?format=json for the report], "
        "/events) while the job runs",
    )
    group.add_argument(
        "--mrs-profile-tasks",
        dest="profile_tasks",
        type=int,
        default=0,
        metavar="N",
        help="run tasks under cProfile and keep the .pstats dumps of "
        "the N slowest tasks per process (paths attached to their "
        "spans and announced as task.profiled events; N >= the task "
        "count keeps every task).  'Profiling has helped to identify "
        "real bottlenecks' — section IV-B",
    )
    group.add_argument(
        "--mrs-timeout",
        dest="timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="overall job timeout (master/serial implementations)",
    )
    group.add_argument(
        "--mrs-slave-wait-timeout",
        dest="slave_wait_timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="master: how long wait_for_slaves blocks for sign-ins "
        "(default: MRS_SLAVE_WAIT_TIMEOUT or 30)",
    )
    group.add_argument(
        "--mrs-max-concurrent-jobs",
        dest="max_concurrent_jobs",
        type=int,
        default=8,
        metavar="N",
        help="serve: jobs admitted into the shared slave pool at once "
        "(further submissions queue FIFO)",
    )
    group.add_argument(
        "--mrs-auth-token",
        dest="auth_token",
        default=None,
        metavar="TOKEN",
        help="serve: bearer token required by mutating control-surface "
        "requests (POST/DELETE /jobs); default MRS_AUTH_TOKEN or none",
    )
    group.add_argument(
        "--mrs-register",
        dest="register",
        action="append",
        default=[],
        metavar="NAME=MODULE:CLASS",
        help="serve: register a submittable program under NAME "
        "(repeatable); the program class passed to main() is always "
        "registered under its lowercased class name",
    )
    if program_class is not None and hasattr(program_class, "update_parser"):
        program_class.update_parser(parser)
    return parser


def parse_options(
    program_class: Any = None,
    argv: Optional[Sequence[str]] = None,
) -> Tuple[argparse.Namespace, List[str]]:
    """Parse framework + program options; returns (opts, positional args)."""
    parser = make_parser(program_class)
    opts, args = parser.parse_known_args(argv)
    impl = opts.mrs_impl.lower()
    if impl not in IMPLEMENTATIONS:
        parser.error(
            f"unknown implementation {opts.mrs_impl!r}; "
            f"choose from {', '.join(IMPLEMENTATIONS)}"
        )
    opts.mrs_impl = impl
    # Anything left that still looks like a flag is a genuine error.
    stray = [a for a in args if a.startswith("-")]
    if stray:
        parser.error(f"unrecognized options: {' '.join(stray)}")
    return opts, args


def default_options(**overrides: Any) -> argparse.Namespace:
    """Build an options namespace programmatically (for tests/benches)."""
    opts, _ = parse_options(None, [])
    for key, value in overrides.items():
        setattr(opts, key, value)
    return opts
