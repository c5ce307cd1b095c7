"""Per-task profiling, on every runtime: ``--mrs-profile-tasks N``.

:class:`TaskProfiler` keeps only the ``.pstats`` files of the N slowest
tasks seen so far: every task runs under ``cProfile`` while the flag is
on, but a task's profile is persisted only if it ranks among the N
slowest at the moment it finishes (evicting — and deleting — the
fastest retained profile).  N at least the task count keeps every
task's profile, the right setting for a 5-task debug run.  Retained
paths are attached to the task's span (``profile_path``), from which
the ``task.profiled`` event is derived when the task commits, so the
report and the event log both point at the evidence for the job's
worst tasks.

Each process profiles independently (one profiler per slave),
so "N slowest" is per-process; the directory is shared and file names
carry the pid.
"""

from __future__ import annotations

import cProfile
import heapq
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class TaskProfiler:
    """Run tasks under cProfile, retaining the N slowest profiles."""

    def __init__(self, keep: int, directory: str):
        self.keep = int(keep)
        self.directory = directory
        self._lock = threading.Lock()
        #: Min-heap of (seconds, path): the root is the fastest
        #: retained profile, i.e. the eviction candidate.
        self._slowest: List[Tuple[float, str]] = []
        #: path -> the span that points at it, so eviction can clear
        #: the span's profile_path instead of leaving it dangling.
        self._owners: Dict[str, Any] = {}

    def run(
        self,
        fn: Callable,
        *args: Any,
        profile_dataset_id: str,
        profile_task_index: int,
        profile_span: Any = None,
        **kwargs: Any,
    ) -> Any:
        """Execute ``fn(*args, **kwargs)`` under the profiler.

        The ``profile_*`` keywords are consumed here (namespaced so they
        can never collide with ``fn``'s own keywords): they identify the
        task, and name the span that should learn about a retained dump.
        """
        profiler = cProfile.Profile()
        started = time.perf_counter()
        try:
            return profiler.runcall(fn, *args, **kwargs)
        finally:
            seconds = time.perf_counter() - started
            path = self._retain(
                profiler,
                profile_dataset_id,
                profile_task_index,
                seconds,
                profile_span,
            )
            if path is not None and profile_span is not None:
                profile_span.profile_path = path

    def _retain(
        self,
        profiler: cProfile.Profile,
        dataset_id: str,
        task_index: int,
        seconds: float,
        span: Any = None,
    ) -> Optional[str]:
        """Persist the profile if it ranks in the N slowest; returns
        its path, or None when it was discarded.  Evicting a profile
        deletes its file and clears the evicted task's
        ``span.profile_path`` so spans never dangle."""
        if self.keep <= 0:
            return None
        with self._lock:
            if len(self._slowest) >= self.keep and seconds <= self._slowest[0][0]:
                return None  # faster than everything retained
            os.makedirs(self.directory, exist_ok=True)
            path = os.path.join(
                self.directory,
                f"{dataset_id}_{task_index}_{os.getpid()}.pstats",
            )
            profiler.dump_stats(path)
            if len(self._slowest) >= self.keep:
                _, evicted = heapq.heapreplace(self._slowest, (seconds, path))
                if evicted and evicted != path:
                    try:
                        os.unlink(evicted)
                    except OSError:
                        pass
                    owner = self._owners.pop(evicted, None)
                    if owner is not None and owner.profile_path == evicted:
                        owner.profile_path = None
            else:
                heapq.heappush(self._slowest, (seconds, path))
            if span is not None:
                self._owners[path] = span
        return path

    def retained(self) -> List[Tuple[float, str]]:
        """(seconds, path) for every retained profile, slowest first."""
        with self._lock:
            return sorted(self._slowest, reverse=True)


def profiler_from_opts(opts: Any) -> Optional[TaskProfiler]:
    """Build a TaskProfiler from ``--mrs-profile-tasks`` (or None)."""
    keep = int(getattr(opts, "profile_tasks", 0) or 0)
    if keep <= 0:
        return None
    import tempfile

    base = getattr(opts, "tmpdir", None) or tempfile.gettempdir()
    return TaskProfiler(keep, os.path.join(base, "mrs_task_profiles"))
