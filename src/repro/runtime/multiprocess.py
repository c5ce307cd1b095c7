"""``--mrs multiprocess`` lives in :mod:`repro.runtime.cluster`; the
name stays importable from here for the benchmark's ``LocalPool``."""

from repro.runtime.cluster import MultiprocessBackend

__all__ = ["MultiprocessBackend"]
