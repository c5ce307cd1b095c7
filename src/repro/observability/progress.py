"""Live progress: the ``--mrs-progress`` stderr ticker.

The paper's users run iterative jobs that queue thousands of tasks
ahead; without a live view the only signal is the shell cursor
blinking.  :class:`ProgressTicker` re-renders one status line every
interval from ``backend.status()`` — tasks done/total, percentage, an
ETA extrapolated from the task-duration histogram, and the live
overhead fraction (framework seconds over wall seconds so far), the
in-flight version of the numbers the paper's evaluation reports.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, List, Optional, Tuple

from repro.core.dataset import namespace_of


def _job_key(job_id: str) -> Tuple[int, str]:
    try:
        return int(job_id.split("-", 1)[1]), job_id
    except (IndexError, ValueError):
        return 1 << 30, job_id


def job_segments(status: dict) -> List[str]:
    """Per-job dataset progress segments for service mode, grouped by
    the ``job-N.`` dataset-id namespace prefix (empty for plain jobs)."""
    groups: dict = {}
    for row in status.get("datasets") or ():
        job = namespace_of(row["id"])
        if job is None:
            continue
        done, total = groups.get(job, (0, 0))
        groups[job] = (done + (1 if row["complete"] else 0), total + 1)
    return [
        f"{job} {done}/{total} ds"
        for job, (done, total) in sorted(
            groups.items(), key=lambda item: _job_key(item[0])
        )
    ]


def format_status_line(status: dict) -> str:
    """One human-readable line from a ``Job.status()`` snapshot.

    In service mode, dataset ids carry a ``job-N.`` namespace prefix;
    the line then appends one ``job-N done/total ds`` segment per live
    job so concurrent submissions are tellable apart.
    """
    tasks = status.get("tasks") or {}
    done = int(tasks.get("done", 0))
    total = int(tasks.get("total", 0))
    percent = (100.0 * done / total) if total else 0.0
    parts = [f"[mrs] {done}/{total} tasks ({percent:.0f}%)"]
    eta = status.get("eta_seconds")
    if eta is not None:
        parts.append(f"eta {eta:.1f}s")
    overhead = status.get("overhead_fraction")
    if overhead is not None:
        parts.append(f"overhead {100.0 * overhead:.0f}%")
    running = tasks.get("running")
    if running:
        parts.append(f"{running} running")
    parts.extend(job_segments(status))
    return "  ".join(parts)


class ProgressTicker:
    """Background thread that repaints a status line on stderr."""

    def __init__(
        self,
        backend: Any,
        interval: float = 1.0,
        stream=None,
    ):
        self.backend = backend
        self.interval = float(interval)
        self.stream = stream if stream is not None else sys.stderr
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_width = 0

    def start(self) -> "ProgressTicker":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="mrs-progress", daemon=True
            )
            self._thread.start()
        return self

    def _render_once(self) -> None:
        try:
            status = self.backend.status()
        except Exception:
            return  # a torn-down backend must never crash the ticker
        line = format_status_line(status)
        pad = max(0, self._last_width - len(line))
        self._last_width = len(line)
        try:
            self.stream.write("\r" + line + " " * pad)
            self.stream.flush()
        except (OSError, ValueError):
            pass  # closed stream (interpreter teardown)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._render_once()

    def stop(self) -> None:
        """Stop the thread and finish the line with a newline."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None
        self._render_once()
        try:
            self.stream.write("\n")
            self.stream.flush()
        except (OSError, ValueError):
            pass

    def __enter__(self) -> "ProgressTicker":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
