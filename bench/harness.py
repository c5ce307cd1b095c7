"""Process hygiene and statistics shared by every workload.

Everything here exists so that two runs of the same commit print the
same numbers: a pinned environment, a private temp directory inside the
checkout, one rule for medians and percentiles, and checks that no
process or ``mrs_*`` directory outlives the run.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The checkout root: the directory holding ``BENCHMARK.json``, ``bench/``
#: and the program under test in ``src/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: One BLAS thread per worker: two workers on two cores, and an
#: oversubscribed BLAS pool is the largest source of run-to-run noise
#: on ``tsqr_direct``.
#:
#: No transparent huge pages for NumPy's large arrays: this microVM gives
#: freed memory back to its host (virtio-balloon free page reporting),
#: and a huge-page fault on memory the host has taken back cost 4-17 ms
#: when this was written, against 2 us for a 4 KB fault: ``np.ones`` of
#: the 51 MB ``tsqr_direct`` matrix took 2.4-6.3 s instead of 0.024 s,
#: and one Direct TSQR job 30-46 s instead of 0.5-0.8 s.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def require_program() -> None:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(
            f"bench: no program to measure: {SRC}/repro is missing"
        )


def pin_environment() -> Dict[str, str]:
    """Make the process (and every child it spawns) reproducible.

    Must run before ``repro`` is imported: some knobs are read at import
    time.  Returns the ``MRS_*`` variables that were scrubbed, so the
    result can record what the caller's shell had set.
    """
    require_program()
    scrubbed = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith("MRS_")}
    os.environ.update(PINNED_ENV)
    # Slaves and spawned workers re-import both the program and the
    # bench's own program subclasses by module name.
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    return scrubbed


class WorkDir:
    """A private scratch tree inside the checkout, removed on exit.

    ``TMPDIR`` points into it, so the program's own ``mrs_*`` temp
    directories and its native-kernel build cache land here too — the
    benchmark writes nowhere outside its checkout, and every run starts
    with a cold kernel cache.
    """

    def __init__(self) -> None:
        base = os.path.join(ROOT, ".bench_work")
        os.makedirs(base, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=base)
        self._counter = 0
        self.use_tmp(self.fresh("tmp"))

    def fresh(self, label: str) -> str:
        self._counter += 1
        path = os.path.join(self.path, f"{label}-{self._counter}")
        os.makedirs(path)
        return path

    def use_tmp(self, path: str) -> None:
        """Point ``tempfile`` (this process) and ``TMPDIR`` (children)
        at ``path``."""
        self.tmp = path
        os.environ["TMPDIR"] = path
        tempfile.tempdir = path

    def leaked_mrs_dirs(self) -> List[str]:
        return sorted(n for n in os.listdir(self.tmp) if n.startswith("mrs_"))

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass  # another run is using .bench_work


def settle() -> None:
    """Flush the filesystem's dirty state before a timed region.

    A job here creates hundreds to thousands of small files, and on the
    ext4 this was written on file creation gets steadily slower as
    unwritten metadata piles up, then fast again when the kernel's
    flusher has run: a 30-second sawtooth (``vm.dirty_expire``) that
    made consecutive ``pso_iter`` launches climb from 2.0 s to 3.0 s and
    every third ``tsqr_direct`` launch take twice as long.  Starting
    each sample from a flushed state costs about a millisecond and
    removes it.
    """
    os.sync()


# -- processes ---------------------------------------------------------


def live_children() -> List[int]:
    """Pids whose parent is this process (Linux ``/proc`` scan)."""
    me = os.getpid()
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # The command name is parenthesised and may hold spaces.
        fields = stat.rsplit(")", 1)[-1].split()
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(name))
    return found


PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36


def _prctl(option: int, value: int) -> None:
    try:
        import ctypes

        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(option, value, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: the /proc scans below find nothing either


def adopt_orphans() -> None:
    """Make this process the one that orphaned descendants are handed
    to, so a grandchild whose parent has gone shows up in
    :func:`live_children` instead of escaping to init."""
    _prctl(PR_SET_CHILD_SUBREAPER, 1)


def die_with_parent() -> None:
    """Have the kernel send this process SIGTERM when its parent ends,
    however that happens."""
    _prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


STOP_SIGNALS = (signal.SIGTERM, signal.SIGHUP, signal.SIGINT)


class Terminated(BaseException):
    """A signal asked this process to stop."""


def exit_on_signals() -> None:
    """Turn SIGTERM / SIGHUP / SIGINT into an exception in the main
    thread, so every ``finally`` on the way out runs and the processes
    this one started are stopped."""

    owner = os.getpid()

    def stop(signum, frame):
        if os.getpid() != owner:
            # A forked worker of the program under test inherited this
            # handler; it dies of the signal as it would have without.
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        ignore_signals()  # clean up undisturbed
        raise Terminated(signum)

    for sig in STOP_SIGNALS:
        signal.signal(sig, stop)


def ignore_signals() -> None:
    for sig in STOP_SIGNALS:
        signal.signal(sig, signal.SIG_IGN)


def sweep_children() -> List[int]:
    """Kill every process that descends from this one and wait until
    each has ended; returns the pids that were still alive.  Relies on
    :func:`adopt_orphans`: killing a child hands its children to this
    process, and the loop goes round until none is left."""
    found = set()
    while True:
        alive = live_children()
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        found.update(alive)
        try:
            os.waitpid(-1, 0 if alive else os.WNOHANG)
        except ChildProcessError:
            return sorted(found)  # no child left, alive or zombie
        if not alive:
            time.sleep(0.01)  # a zombie's orphans are being handed over


def supervise(command: Sequence[str], budget_s: float, grace_s: float = 10.0) -> Tuple[int, List[int]]:
    """Run ``command`` as a child and do not return while any process
    it started, directly or not, is alive.

    The child gets ``budget_s`` seconds; past that, or when this process
    is told to stop, it is sent SIGTERM (it cleans up after itself),
    then SIGKILL after ``grace_s``.  Whatever still descends from this
    process afterwards is killed and waited for.  Returns the child's
    exit status (negative signal number when it was killed; -SIGALRM
    stands for the budget) and the stragglers' pids.
    """
    adopt_orphans()
    exit_on_signals()
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        try:
            status = child.wait(timeout=budget_s)
        except subprocess.TimeoutExpired:
            status = -signal.SIGALRM
            print(f"bench: {budget_s:g} s budget used up; stopping", file=sys.stderr)
    finally:
        ignore_signals()
        if child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        stragglers = sweep_children()
    return status, stragglers


def reap_children(grace: float = 3.0) -> List[int]:
    """Stop and wait for any child still alive; returns the pids that
    had to be stopped (a leak the caller reports)."""
    leaked = live_children()
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace
    while live_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    sweep_children()
    return leaked


def children_rss_mb() -> float:
    """Summed peak RSS (``VmHWM``) of the live child processes, in MB:
    what the workers or slaves of a running job have needed so far.

    Read from ``/proc`` while they are alive, because what ``getrusage``
    reports for a reaped child starts at the size of the process that
    forked it, and so follows the driver instead of the child.
    """
    total_kb = 0
    for pid in live_children():
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue  # exited between the scan and the read
    return total_kb / 1024.0


def peak_rss_mb(children_mb: Sequence[float]) -> float:
    """Peak RSS of one job: the driver (which hosts the master) at its
    largest, plus the median over the run's launches of what the job's
    child processes reached."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return own / 1024.0 + median(children_mb)


def environment_record(scrubbed: Dict[str, str]) -> Dict[str, Any]:
    from repro.native.compile import find_compiler

    commit = None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0:
            commit = out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "compiler": (find_compiler() or [None])[0],
        "git_commit": commit,
        "scrubbed_env": scrubbed,
        "pinned_env": PINNED_ENV,
    }


# -- statistics ----------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation: a reported latency is
    one that a job actually had)."""
    ranked = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ranked)))
    return float(ranked[rank - 1])


#: Percentiles a report may quote, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def highest_percentile(n_samples: int, beyond: int = 10) -> Optional[float]:
    """The highest quotable percentile with at least ``beyond`` samples
    above it, or ``None`` when even the median has fewer."""
    best = None
    for pct in PERCENTILES:
        if n_samples - math.ceil(pct / 100.0 * n_samples) >= beyond:
            best = pct
    return best


def rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def timed(fn, *args, **kwargs) -> Tuple[float, Any]:
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - started, result


def read_outputs(outdir: str) -> Dict[Tuple[int, int], bytes]:
    """A job's user-facing output files keyed by ``(split, source)``.

    Dataset ids count up per process, so two runs name the same file
    ``reduce_2_0_1.txt`` and ``reduce_9_0_1.txt``; the trailing
    ``<source>_<split>`` is what identifies it.  Hidden sidecars are the
    runtime's, not the user's.
    """
    out = {}
    for name in os.listdir(outdir):
        if name.startswith("."):
            continue
        stem = name.rsplit(".", 1)[0]
        _, source, split = stem.rsplit("_", 2)
        with open(os.path.join(outdir, name), "rb") as f:
            out[(int(split), int(source))] = f.read()
    return out


def rendered_outputs(program: Any) -> Dict[Tuple[int, int], bytes]:
    """The text every output file of a finished job should hold, keyed
    like :func:`read_outputs`: the job's authoritative output pairs
    (``program.output_data``, which a distributed run reads back from
    its lossless sidecars) through the program's own ``TextWriter``.

    Runs are compared on this rather than on the ``.txt`` files they
    left behind because, at the commit this benchmark was written
    against, workers leave the ``.txt`` of any output bucket of 4096 or
    more records empty (see ``io.bucket.text_outputs_empty``), while the
    serial runtime writes it correctly.
    """
    import io

    from repro.io.formats import TextWriter

    dataset = program.output_data
    dataset.fetchall()
    out = {}
    for bucket in dataset.existing_buckets():
        buffer = io.BytesIO()
        TextWriter(buffer).writepairs(bucket)
        out[(bucket.split, bucket.source)] = buffer.getvalue()
    return out


def empty_text_outputs(rendered: Dict[Tuple[int, int], bytes], outdir: str) -> int:
    """Output files left empty although the job's authoritative output
    (``rendered``, from :func:`rendered_outputs`) has records for that
    bucket."""
    written = read_outputs(outdir)
    return sum(1 for key, text in rendered.items() if text and not written.get(key))
