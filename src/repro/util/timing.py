"""Wall-clock measurement helpers used by the runtime and benchmarks."""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator, List, Optional, Tuple


class Stopwatch:
    """A restartable stopwatch accumulating elapsed wall-clock time.

    >>> sw = Stopwatch()
    >>> sw.start(); sw.stop()  # doctest: +SKIP
    """

    def __init__(self) -> None:
        self._accumulated = 0.0
        self._started_at: Optional[float] = None

    def start(self) -> "Stopwatch":
        if self._started_at is None:
            self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._started_at is not None:
            self._accumulated += time.perf_counter() - self._started_at
            self._started_at = None
        return self._accumulated

    def reset(self) -> None:
        self._accumulated = 0.0
        self._started_at = None

    @property
    def running(self) -> bool:
        return self._started_at is not None

    @property
    def elapsed(self) -> float:
        total = self._accumulated
        if self._started_at is not None:
            total += time.perf_counter() - self._started_at
        return total

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class PhaseTimer:
    """Accumulate wall-clock time attributed to named phases.

    Used by the runtimes to break a job into setup / map / shuffle /
    reduce phases the same way the paper's evaluation discusses
    "startup" vs "total" time.
    """

    def __init__(self) -> None:
        self._phases: Dict[str, float] = {}
        self._order: List[str] = []
        self._current: Optional[Tuple[str, float]] = None

    def begin(self, phase: str) -> None:
        """Start attributing time to ``phase``, ending any open phase."""
        now = time.perf_counter()
        self._close(now)
        if phase not in self._phases:
            self._phases[phase] = 0.0
            self._order.append(phase)
        self._current = (phase, now)

    def end(self) -> None:
        """Stop attributing time to the open phase, if any.

        Safe to call with no open phase (e.g. a second ``end`` or an
        ``end`` before any ``begin``): it is a no-op.
        """
        self._close(time.perf_counter())

    @property
    def current(self) -> Optional[str]:
        """Name of the open phase, or None."""
        return self._current[0] if self._current is not None else None

    @contextlib.contextmanager
    def measure(self, phase: str) -> Iterator["PhaseTimer"]:
        """Attribute the block's wall time to ``phase``.

        Unlike raw ``begin``/``end`` pairs, ``measure`` restores any
        phase that was open when the block was entered, so nested and
        re-entrant instrumentation (runtime code timing a sub-phase
        inside a larger phase, including the *same* phase name) never
        silently truncates the outer attribution.
        """
        previous = self.current
        self.begin(phase)
        try:
            yield self
        finally:
            self.end()
            if previous is not None:
                self.begin(previous)

    def _close(self, now: float) -> None:
        if self._current is not None:
            phase, started = self._current
            self._phases[phase] += now - started
            self._current = None

    def add(self, phase: str, seconds: float) -> None:
        """Directly add ``seconds`` to ``phase`` (e.g. modeled time)."""
        if phase not in self._phases:
            self._phases[phase] = 0.0
            self._order.append(phase)
        self._phases[phase] += seconds

    def get(self, phase: str) -> float:
        return self._phases.get(phase, 0.0)

    @property
    def total(self) -> float:
        return sum(self._phases.values())

    def breakdown(self) -> List[Tuple[str, float]]:
        """Return (phase, seconds) pairs in first-seen order."""
        return [(p, self._phases[p]) for p in self._order]

    def __repr__(self) -> str:
        parts = ", ".join(f"{p}={s:.3f}s" for p, s in self.breakdown())
        return f"PhaseTimer({parts})"


def summarize_seconds(samples: List[float]) -> Dict[str, float]:
    """Count/total/mean/max of a list of wall-second samples."""
    if not samples:
        return {"count": 0, "total": 0.0, "mean": 0.0, "max": 0.0}
    total = sum(samples)
    return {
        "count": len(samples),
        "total": total,
        "mean": total / len(samples),
        "max": max(samples),
    }
