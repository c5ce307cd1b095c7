"""The paper's actual Fig 3b mechanism: a C inner loop via ctypes.

"Python makes it easy to rework existing code so that performance
critical parts of an application, such as the inner loop of our map
tasks, can be rewritten in C ... we use Python's ctypes module to call
a C function instead of the pure Python implementation of the Halton
sequence" (section V-B).

The C source lives next to this module (``_halton.c``); compiler
discovery, the per-user build cache, and the atomic compile-and-load
live in :mod:`repro.native.compile`.  Environments without a compiler fall back to the
vectorized NumPy kernel (see DESIGN.md's substitution table) — call
:func:`is_available` to find out which world you are in.
"""

from __future__ import annotations

import ctypes
import os
import threading
from typing import Optional, Tuple

from repro.native.compile import (  # noqa: F401  (re-exported)
    CompilerUnavailable,
    load_shared_library,
)

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_halton.c")

#: -ffp-contract=off forbids FMA contraction so x*x + y*y rounds the
#: same way CPython does — results stay bit-identical to the pure
#: Python kernel.
_CFLAGS = ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]

_CACHE_PREFIX = "repro_halton"

_lock = threading.Lock()
_library: Optional[ctypes.CDLL] = None
_load_error: Optional[str] = None


def _build_library() -> ctypes.CDLL:
    library = load_shared_library(_SOURCE_PATH, _CACHE_PREFIX, _CFLAGS)
    library.halton_count_inside.restype = ctypes.c_int64
    library.halton_count_inside.argtypes = [ctypes.c_int64, ctypes.c_int64]
    library.halton_points.restype = None
    library.halton_points.argtypes = [
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.POINTER(ctypes.c_double),
    ]
    return library


def _get_library() -> ctypes.CDLL:
    global _library, _load_error
    with _lock:
        if _library is not None:
            return _library
        if _load_error is not None:
            raise CompilerUnavailable(_load_error)
        try:
            _library = _build_library()
            return _library
        except CompilerUnavailable as exc:
            _load_error = str(exc)
            raise


def is_available() -> bool:
    """True if the C kernel can be (or has been) built and loaded."""
    try:
        _get_library()
        return True
    except CompilerUnavailable:
        return False


def count_inside_ctypes(offset: int, count: int) -> Tuple[int, int]:
    """C-kernel twin of :func:`repro.apps.pi.halton.sample_inside`."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if offset < 0:
        raise ValueError("offset must be non-negative")
    library = _get_library()
    inside = library.halton_count_inside(offset, count)
    return int(inside), count


def halton_points_ctypes(offset: int, count: int):
    """The raw points, for sequence-level testing."""
    import numpy as np

    if count < 0:
        raise ValueError("count must be non-negative")
    library = _get_library()
    buffer = np.empty(2 * count, dtype=np.float64)
    library.halton_points(
        offset,
        count,
        buffer.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
    )
    return buffer[0::2], buffer[1::2]


def measure_ctypes_rate(samples: int = 5_000_000) -> float:
    """Measured C-kernel sampling rate (points/second), best of 3."""
    import time

    count_inside_ctypes(0, min(samples, 100_000))  # warm the loader
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        count_inside_ctypes(0, samples)
        best = min(best, time.perf_counter() - started)
    return samples / best if best > 0 else float("inf")
