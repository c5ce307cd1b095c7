"""ctypes loader and wrappers for the C shuffle probes.

No job calls these kernels: the framework's shuffle is pure Python, as
the paper has it, and C belongs in a program's own inner loop through
ctypes (``repro.apps.pi.halton_ctypes``).  The module and
``_shuffle.c`` stay only because the benchmark imports them:
``bench/layers.py::native_kernel_costs`` times each kernel against the
workload's keys (``MergePicker`` included), ``bench/runner.py`` times
the cold compile through :func:`set_mode` and :func:`get`, and
``bench/workloads/base.py`` calls :func:`configure_from_opts`.
ROADMAP item 9(f) deletes them together with those probes.

:func:`get` compiles on demand and returns ``None`` when no compiler is
available (mode ``auto``) or after ``set_mode("off")``.

Data marshalling convention: a batch of byte strings is packed with
:func:`pack` into one contiguous ``bytes`` buffer plus an ``array('q')``
of offsets (``offs[i]:offs[i+1]`` is element ``i``).  Index and bounds
arrays cross the boundary as raw addresses (``array.buffer_info()``),
so a batch costs one ``b"".join`` and a handful of ctypes calls no
matter how many records it holds.
"""

from __future__ import annotations

import ctypes
import os
import threading
from array import array
from itertools import accumulate, chain
from typing import List, Optional, Sequence, Tuple

from repro.native.compile import CompilerUnavailable, load_shared_library

#: Below this many records the ctypes call overhead can outweigh the C
#: speedup; the benchmark probes skip smaller samples.
MIN_BATCH = 32

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_shuffle.c")
_CACHE_PREFIX = "repro_native"
_CFLAGS = ["-O2", "-shared", "-fPIC"]

_VALID_MODES = ("auto", "off")

_lock = threading.Lock()
_mode = "auto"
_UNSET = object()
_kernels = _UNSET  # cached ShuffleKernels, or None after a failed load


def _addr(arr: array) -> int:
    return arr.buffer_info()[0]


def _buf_addr(buf: bytearray) -> int:
    return ctypes.addressof((ctypes.c_char * len(buf)).from_buffer(buf))


def _bytes_addr(data: bytes) -> int:
    return ctypes.cast(ctypes.c_char_p(data), ctypes.c_void_p).value or 0


def pack(chunks: Sequence[bytes]) -> Tuple[bytes, array]:
    """Pack byte strings into ``(buffer, offsets)`` for the C side."""
    buf = b"".join(chunks)
    offs = array("q", chain((0,), accumulate(map(len, chunks))))
    return buf, offs


def set_mode(value: str) -> None:
    """Set the mode and forget the loaded kernels, so the next
    :func:`get` compiles again (into whatever cache ``TMPDIR`` names)."""
    global _mode, _kernels
    if value not in _VALID_MODES:
        raise ValueError(f"invalid native mode {value!r} (auto/off)")
    with _lock:
        _mode = value
        _kernels = _UNSET


def configure_from_opts(opts) -> None:
    """Does nothing: no option selects the kernels any more.  The
    benchmark's pool start still calls it, so it stays until ROADMAP
    item 9(f)."""


def get() -> Optional["ShuffleKernels"]:
    """The shared :class:`ShuffleKernels`, or ``None``.

    ``off`` always returns ``None``; ``auto`` returns ``None`` when the
    kernels cannot be built (the failure is cached — one compile attempt
    per process).
    """
    global _kernels
    if _mode == "off":
        return None
    cached = _kernels
    if cached is not _UNSET:
        return cached
    with _lock:
        if _kernels is _UNSET:
            try:
                _kernels = ShuffleKernels(
                    load_shared_library(_SOURCE, _CACHE_PREFIX, _CFLAGS)
                )
            except (CompilerUnavailable, OSError):  # no compiler, or dlopen
                _kernels = None
        return _kernels


class ShuffleKernels:
    """Typed wrappers around the ``_shuffle.c`` entry points."""

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        void_p = ctypes.c_void_p
        i64 = ctypes.c_int64
        lib.mrs_crc32.restype = ctypes.c_uint32
        lib.mrs_crc32.argtypes = [void_p, i64]
        lib.mrs_hash64.restype = ctypes.c_uint64
        lib.mrs_hash64.argtypes = [void_p, i64]
        lib.mrs_partition_scatter.restype = ctypes.c_int
        lib.mrs_partition_scatter.argtypes = [
            void_p, void_p, i64, ctypes.c_uint32, void_p, void_p,
        ]
        lib.mrs_sort_index.restype = ctypes.c_int
        lib.mrs_sort_index.argtypes = [void_p, void_p, i64, void_p]
        lib.mrs_group_scatter.restype = i64
        lib.mrs_group_scatter.argtypes = [
            void_p, void_p, i64, ctypes.c_int, void_p, void_p,
        ]
        lib.mrs_frame.restype = i64
        lib.mrs_frame.argtypes = [void_p, void_p, void_p, void_p, i64, void_p]
        lib.mrs_scan.restype = i64
        lib.mrs_scan.argtypes = [void_p, i64, i64, i64, void_p]
        lib.mrs_merge_pick.restype = i64
        lib.mrs_merge_pick.argtypes = [
            ctypes.c_int32,
            ctypes.POINTER(void_p),  # bufs
            ctypes.POINTER(void_p),  # triples
            void_p,                  # counts
            void_p,                  # positions
            void_p,                  # done flags
            void_p,                  # prev key
            i64,                     # prev len
            void_p,                  # out_src
            void_p,                  # out_newgrp
            i64,                     # max_out
        ]

    # -- hashing / partitioning ------------------------------------

    def crc32(self, data: bytes) -> int:
        return self._lib.mrs_crc32(data, len(data))

    def hash64(self, data: bytes) -> int:
        return self._lib.mrs_hash64(data, len(data))

    def partition_scatter(
        self, keys: Sequence[bytes], n_splits: int
    ) -> Tuple[array, array]:
        """Stable scatter of a key batch by split id.

        Returns ``(order, bounds)``: record indices grouped by split
        (emit order preserved within each split), and per-split ranges
        into ``order`` (``bounds[s]:bounds[s+1]``).
        """
        buf, offs = pack(keys)
        n = len(keys)
        order = array("q", bytes(8 * n))
        bounds = array("q", bytes(8 * (n_splits + 1)))
        rc = self._lib.mrs_partition_scatter(
            buf, _addr(offs), n, n_splits, _addr(order), _addr(bounds)
        )
        if rc != 0:
            raise MemoryError("mrs_partition_scatter allocation failed")
        return order, bounds

    # -- sorting / grouping ----------------------------------------

    def sort_index(self, keys: Sequence[bytes]) -> array:
        """The stable permutation sorting ``keys`` bytewise."""
        buf, offs = pack(keys)
        n = len(keys)
        order = array("q", bytes(8 * n))
        rc = self._lib.mrs_sort_index(buf, _addr(offs), n, _addr(order))
        if rc != 0:
            raise MemoryError("mrs_sort_index allocation failed")
        return order

    def group_scatter(
        self, keys: Sequence[bytes], sort_groups: bool = False
    ) -> Tuple[int, array, array]:
        """Group equal keys; values keep encounter order.

        Returns ``(ngroups, order, bounds)`` where ``order`` holds
        record indices grouped by key and ``bounds[g]:bounds[g+1]`` is
        group ``g``'s range.  Groups appear in first-encounter order,
        or sorted by key bytes when ``sort_groups``.
        """
        buf, offs = pack(keys)
        n = len(keys)
        order = array("q", bytes(8 * n))
        bounds = array("q", bytes(8 * (n + 1)))
        ngroups = self._lib.mrs_group_scatter(
            buf, _addr(offs), n, 1 if sort_groups else 0, _addr(order), _addr(bounds)
        )
        if ngroups < 0:
            raise MemoryError("mrs_group_scatter allocation failed")
        return ngroups, order, bounds

    # -- record framing --------------------------------------------

    def frame(self, keys: Sequence[bytes], values: Sequence[bytes]) -> bytearray:
        """Frame a record batch exactly like ``BinWriter`` does (a
        benchmark probe; the writer frames in Python)."""
        n = len(keys)
        if n == 0:
            return bytearray()
        kbuf, koffs = pack(keys)
        vbuf, voffs = pack(values)
        out = bytearray(8 * n + len(kbuf) + len(vbuf))
        self._lib.mrs_frame(
            kbuf, _addr(koffs), vbuf, _addr(voffs), n, _buf_addr(out)
        )
        return out

    def scan(self, buf: bytes, start: int = 0) -> Tuple[int, array]:
        """Parse framed records from ``buf[start:]``.

        Returns ``(count, triples)`` where ``triples[3i:3i+3]`` is
        ``(key_start, value_start, value_end)`` for record ``i`` —
        absolute offsets into ``buf``.  Parsing stops at a partial
        trailing record; the caller carries the tail forward.
        """
        cap = (len(buf) - start) // 8
        if cap <= 0:
            return 0, array("q")
        triples = array("q", bytes(8 * 3 * cap))
        count = self._lib.mrs_scan(buf, len(buf), start, cap, _addr(triples))
        return count, triples


class MergePicker:
    """Stateful k-way merge over framed windows.

    No job runs it: the reduce side merges with ``heapq.merge`` over
    ``BinReader`` streams (``io.bucket.merge_sorted_records``).  It is
    kept, with :meth:`ShuffleKernels.frame`, as the benchmark's
    ``merge_pick``/``frame`` probes.  Each stream gets a window — a
    buffer of framed bytes plus its :meth:`ShuffleKernels.scan` triples
    — and :meth:`pick` replays ``heapq.merge(key=record_key)`` over
    them: bytewise key order, ties broken by the lowest stream index.
    """

    #: picks returned per C call; bounds the out arrays.
    MAX_OUT = 8192

    def __init__(self, kernels: ShuffleKernels, k: int):
        if k > 1024:
            raise ValueError("MergePicker supports at most 1024 streams")
        self._lib = kernels._lib
        self.k = k
        self._bufs = (ctypes.c_void_p * k)()
        self._tris = (ctypes.c_void_p * k)()
        self._counts = array("q", bytes(8 * k))
        self._positions = array("q", bytes(8 * k))
        self._done = bytearray(k)
        self._out_src = array("i", bytes(4 * self.MAX_OUT))
        self._out_new = bytearray(self.MAX_OUT)
        # Keep the per-stream buffers and triple arrays alive while the
        # C side holds raw pointers into them.
        self._window_buf: List[Optional[bytes]] = [None] * k
        self._window_tri: List[Optional[array]] = [None] * k

    def set_window(self, s: int, buf: bytes, triples: array, count: int) -> None:
        self._window_buf[s] = buf
        self._window_tri[s] = triples
        self._bufs[s] = _bytes_addr(buf)
        self._tris[s] = _addr(triples) if count else None
        self._counts[s] = count
        self._positions[s] = 0

    def mark_done(self, s: int) -> None:
        self._done[s] = 1

    def pick(self, prev_key: Optional[bytes]):
        """Run the merge until MAX_OUT picks or a window runs dry.

        Returns ``(npicks, out_src, out_newgrp)``; the out arrays are
        reused across calls, so consume them before the next call.
        ``prev_key`` is the key of the last record emitted by the
        previous call (``None`` before the first record) and anchors
        the new-group flags across call boundaries.
        """
        npicks = self._lib.mrs_merge_pick(
            self.k,
            self._bufs,
            self._tris,
            _addr(self._counts),
            _addr(self._positions),
            _buf_addr(self._done),
            prev_key if prev_key is not None else None,
            len(prev_key) if prev_key is not None else -1,
            _addr(self._out_src),
            _buf_addr(self._out_new),
            self.MAX_OUT,
        )
        if npicks < 0:
            raise RuntimeError("mrs_merge_pick failed")
        return npicks, self._out_src, self._out_new
