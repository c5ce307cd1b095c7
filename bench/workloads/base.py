"""What every workload shares: set-up rounds, the timed-repeat loop for
batch jobs, and the two ways a batch job is launched.

A workload is built from a seed and nothing else; the program under
test only ever sees the generated inputs and its own command line.
"""

from __future__ import annotations

import gc
import shutil
import time
from typing import Any, Dict, List, NamedTuple, Optional

from bench import harness
from bench.trace import Tracer

from repro.core.job import Job
from repro.core.options import parse_options
from repro.comm import transfer
from repro.io import serializers
from repro.native import kernels
from repro.runtime.cluster import LocalCluster
from repro.runtime.multiprocess import MultiprocessBackend

#: Two workers everywhere: the box has two cores.
WORKERS = 2
#: How far past ``--seconds`` the timed launches may run to reach their
#: minimum count.
OVERRUN = 4


class Sample(NamedTuple):
    """One launch of a batch job."""

    start_s: float  # backend construction until ready for a task
    job_s: float  # program.run(job): submit until output complete
    stop_s: float  # shutdown: workers reaped, ports closed
    ok: bool  # output equals the serial reference
    children_mb: float  # summed peak RSS of the workers / slaves


class LocalPool:
    """``--mrs multiprocess`` with the shape of :class:`LocalCluster`
    (``start``/``run``/``stop``), so both launch the same way."""

    def __init__(self, program_class: type, args: List[str], tmpdir: str):
        self.program_class = program_class
        self.args = [
            "--mrs", "multiprocess", "--mrs-procs", str(WORKERS),
            "--mrs-tmpdir", tmpdir, *args,
        ]
        self.backend: Optional[MultiprocessBackend] = None
        self.program: Any = None

    def start(self) -> "LocalPool":
        opts, positional = parse_options(self.program_class, self.args)
        kernels.configure_from_opts(opts)
        serializers.configure_zero_copy_from_opts(opts)
        self.program = self.program_class(opts, positional)
        self.backend = MultiprocessBackend(self.program, opts, positional)
        # Ready means every worker has built its program copy and is
        # blocked on its task queue, the pool's analogue of slave
        # sign-in.
        while self.backend.status()["workers"]["ready"] < WORKERS:
            time.sleep(0.0005)
        return self

    def run(self) -> Any:
        status = self.program.run(Job(self.backend, self.program))
        if status not in (None, 0):
            raise RuntimeError(f"{self.program_class.__name__} exited {status}")
        self.program.metrics_report = self.backend.metrics()
        return self.program

    def stop(self) -> None:
        if self.backend is not None:
            self.backend.close()
            self.backend = None


class Workload:
    """One set of inputs and the checks on what the program makes of
    them.  Subclasses set ``name`` and sizes and fill in the hooks."""

    name = ""
    #: Input sizes: the full run, and a tenth of it for ``--smoke``.
    full: Dict[str, Any] = {}
    smoke: Dict[str, Any] = {}

    def __init__(self, seed: int, smoke: bool, work: harness.WorkDir):
        self.seed = seed
        self.is_smoke = smoke
        self.size = dict(self.smoke if smoke else self.full)
        self.work = work
        self.inputs = ""
        #: Timings taken during set-up rounds, by layer-metric name;
        #: the reported value is the median.
        self.notes: Dict[str, List[float]] = {}
        self.serial_job_s = 0.0
        self.attempted = 0
        self.failed = 0

    # -- hooks ------------------------------------------------------------

    def generate(self, directory: str) -> None:
        """Write the seeded inputs under ``directory`` (one set-up
        round; runs several times, each into a fresh directory)."""

    def prepare(self) -> None:
        """Build the serial reference (once, after the last round)."""

    def measure(self, seconds: float, min_repeats: int) -> Dict[str, float]:
        """The timed pass, tracing off: end-to-end metrics."""
        raise NotImplementedError

    def trace(self, tracer: Tracer, seconds: float) -> Dict[str, float]:
        """The traced pass: layer metrics."""
        raise NotImplementedError

    def samples_record(self) -> Dict[str, Any]:
        """The timed pass's raw samples, for the result file."""
        return {}

    # -- helpers -------------------------------------------------------------

    def note(self, name: str, seconds: float) -> None:
        self.notes.setdefault(name, []).append(seconds)

    def count(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += 0 if ok else 1
        return ok


class BatchWorkload(Workload):
    """A job a user launches, waits for, and exits: every repeat pays
    backend start, the job, and shutdown."""

    program_class: type = object
    #: ``"multiprocess"``, or the cluster's data plane (``"file"`` /
    #: ``"http"``) for a master plus two slave subprocesses.
    backend = "multiprocess"

    def args(self, outdir: str) -> List[str]:
        """The program's command line for one run."""
        raise NotImplementedError

    def verify(self, program: Any, outdir: str) -> bool:
        raise NotImplementedError

    def launcher(self, tmpdir: str, outdir: str) -> Any:
        if self.backend == "multiprocess":
            return LocalPool(self.program_class, self.args(outdir), tmpdir)
        return LocalCluster(
            self.program_class, self.args(outdir), n_slaves=WORKERS,
            data_plane=self.backend, tmpdir=tmpdir,
        )

    def launch(self) -> Sample:
        """Start, run, stop, verify; fresh directories, removed after."""
        tmpdir = self.work.fresh("mrs")
        outdir = self.work.fresh("out")
        launcher = self.launcher(tmpdir, outdir)
        harness.settle()
        t0 = time.perf_counter()
        try:
            launcher.start()
            t1 = time.perf_counter()
            program = launcher.run()
            t2 = time.perf_counter()
            children_mb = harness.children_rss_mb()
        finally:
            stopping = time.perf_counter()
            launcher.stop()
            # The master fetches result buckets over pooled keep-alive
            # connections; close them so no port outlives the launch.
            transfer.get_pool().close()
        t3 = time.perf_counter()
        self.last_program = program
        ok = self.verify(program, outdir) and not self.work.leaked_mrs_dirs()
        shutil.rmtree(tmpdir, ignore_errors=True)
        shutil.rmtree(outdir, ignore_errors=True)
        # A finished job leaves reference cycles that hold its buffers;
        # left to the collector's own schedule the driver grows by tens
        # of MB per launch on a slow host and not at all on a fast one.
        gc.collect()
        return Sample(t1 - t0, t2 - t1, t3 - stopping, self.count(ok), children_mb)

    def timed_launches(self, seconds: float, min_repeats: int) -> List[Sample]:
        """One discarded warm-up, then launches until ``seconds`` are
        used up — and ``min_repeats`` made, unless the host is so slow
        that they would take over ``OVERRUN`` times ``seconds``: a run
        that reports fewer samples beats one that never ends."""
        self.launch()
        samples: List[Sample] = []
        began = time.perf_counter()
        while True:
            samples.append(self.launch())
            elapsed = time.perf_counter() - began
            ahead = elapsed + elapsed / len(samples)
            if ahead > seconds and (len(samples) >= min_repeats or ahead > OVERRUN * seconds):
                return samples

    def samples_record(self) -> Dict[str, Any]:
        return {
            "n": len(self.samples),
            "start_s": [s.start_s for s in self.samples],
            "job_s": [s.job_s for s in self.samples],
            "stop_s": [s.stop_s for s in self.samples],
            "children_mb": [s.children_mb for s in self.samples],
        }

    # -- the traced pass --------------------------------------------------

    #: What the data plane's traced self time is a share of: the serial
    #: job, or (where wall time is all waiting) the parallel one.
    share_of = "serial"

    def replay(self, replay: Any) -> bool:
        """Walk the job's dataflow through ``replay``'s stages; true when
        the replayed output equals the reference."""
        raise NotImplementedError

    def probes(self, replay: Any, root: str, job_s: float) -> Dict[str, float]:
        """Workload-specific micro-probes on the replay's sample."""
        return {}

    def trace(self, tracer: Tracer, seconds: float) -> Dict[str, float]:
        from bench import layers

        # A few real launches first: the parallel time the serial run is
        # compared with, and the counters the program itself reports.
        launches = [self.launch() for _ in range(1 if self.is_smoke else 3)]
        timed = launches[-2:]
        job_s = min(s.job_s for s in timed)
        report = self.last_program.metrics_report
        counters = report["metrics"]["counters"]
        out = {
            "runtime.serial.job_s": self.serial_job_s,
            "runtime.parallel_eff": self.serial_job_s / (job_s * WORKERS),
            "runtime.backend.start_s": harness.median([s.start_s for s in timed]),
            "runtime.backend.shutdown_s": harness.median([s.stop_s for s in timed]),
            "runtime.scheduler.pipelined_dispatches": counters.get(
                "scheduler.pipelined_dispatches", 0.0),
            "comm.transfer.bytes": counters.get("fetch.bytes", 0.0),
            "comm.transfer.retries": counters.get("fetch.retries", 0.0),
            "comm.transfer.conn_reuse_ratio": harness.rate(
                counters.get("fetch.connections.reused", 0.0),
                counters.get("fetch.requests", 0.0)),
        }
        graph = [(op["kind"], op["tasks"]) for op in report["operations"]]
        out.update(layers.scheduler_dispatch(graph))
        if self.backend != "multiprocess":
            out.update(layers.rpc_roundtrip())

        root = self.work.fresh("replay")
        replay = layers.Replay(tracer, root, http=self.backend == "http")
        began = time.perf_counter()
        try:
            self.count(self.replay(replay))
        finally:
            replay.close()
        wall = time.perf_counter() - began
        out.update(layers.span_metrics(tracer))
        base = self.serial_job_s if self.share_of == "serial" else job_s
        out["bench.trace_coverage"] = tracer.top_level_seconds() / self.serial_job_s
        out["bench.trace_overhead_frac"] = tracer.overhead_seconds() / wall
        out["bench.trace_dataplane_share"] = layers.dataplane_seconds(tracer) / base
        out.update(self.probes(replay, root, job_s))
        return out

    def measure(self, seconds: float, min_repeats: int) -> Dict[str, float]:
        samples = self.samples = self.timed_launches(seconds, min_repeats)
        return {
            "launch_s": harness.median([s.start_s + s.stop_s for s in samples]),
            "job_s": harness.median([s.job_s for s in samples]),
            "jobs_per_s": 1.0 / harness.median(
                [s.start_s + s.job_s + s.stop_s for s in samples]
            ),
            "peak_rss_mb": harness.peak_rss_mb([s.children_mb for s in samples]),
        }
