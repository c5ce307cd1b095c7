"""Key/value serializers.

Real Mrs lets a program declare per-key and per-value serializers so
that hot paths can skip pickle.  We reproduce that: a serializer is a
named pair of ``dumps``/``loads`` over ``bytes``, registered in a global
table so task descriptions can refer to serializers by name when they
are shipped to slave processes.

Serializers for large binary values (NumPy blocks) can additionally
implement the *buffer-protocol extension* — ``dumps_parts(obj)``
returning ``(header_bytes, memoryview, ...)`` and
``loads_view(memoryview)`` — so the IO layer can scatter-write the
parts without joining them into one ``bytes`` and decode values
straight out of an ``mmap`` without copying.  The extension is gated by
the zero-copy knob (``--mrs-zero-copy on|off`` / ``MRS_ZERO_COPY``):
when off, the plain ``dumps``/``loads`` path runs, producing
byte-identical files.
"""

from __future__ import annotations

import os
import pickle
import struct
from typing import Any, Callable, Dict, Optional, Tuple

from repro.util.hashing import PICKLE_PROTOCOL


class Serializer:
    """A named bytes codec.

    Parameters
    ----------
    name:
        Registry key; task descriptions reference serializers by name.
    dumps / loads:
        The codec functions.
    dumps_parts / loads_view:
        Optional buffer-protocol extension.  ``dumps_parts(obj)``
        returns a tuple of buffers — by convention a small header
        followed by one or more large ``memoryview``s — whose
        concatenation equals ``dumps(obj)``.  ``loads_view(view)``
        decodes from any object supporting the buffer protocol
        (``memoryview``, ``mmap``, ``bytes``) without copying the
        payload when the backing store allows it.
    """

    def __init__(
        self,
        name: str,
        dumps: Callable[[Any], bytes],
        loads: Callable[[bytes], Any],
        canonical_key_tag: Optional[bytes] = None,
        dumps_parts: Optional[Callable[[Any], Tuple[Any, ...]]] = None,
        loads_view: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        self.name = name
        self.dumps = dumps
        self.loads = loads
        #: When set, the serializer's wire bytes coincide with the
        #: canonical key encoding minus its type tag:
        #: ``key_to_bytes(loads(data)) == canonical_key_tag + data``
        #: for every valid ``data``.  Readers use this to reconstruct
        #: cached key bytes with a concatenation instead of re-encoding
        #: each key on the reduce side.
        self.canonical_key_tag = canonical_key_tag
        self.dumps_parts = dumps_parts
        self.loads_view = loads_view

    def __repr__(self) -> str:
        return f"Serializer({self.name!r})"

    def roundtrip(self, obj: Any) -> Any:
        """Encode then decode ``obj`` (used by tests and the mock-parallel
        runtime, which forces every record through serialization to
        surface bugs that would only appear in distributed runs)."""
        return self.loads(self.dumps(obj))


_REGISTRY: Dict[str, Serializer] = {}


def register_serializer(serializer: Serializer) -> Serializer:
    _REGISTRY[serializer.name] = serializer
    return serializer


def get_serializer(name: Optional[str]) -> Serializer:
    """Look up a serializer by name; ``None`` means pickle (the default)."""
    if name is None:
        return PickleSerializer
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown serializer {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def _pickle_dumps(obj: Any) -> bytes:
    # Same pinned protocol as the canonical key encoding
    # (util/hashing.py) so value bytes, like key bytes, are identical
    # across every interpreter version in a cluster.
    return pickle.dumps(obj, PICKLE_PROTOCOL)


PickleSerializer = register_serializer(
    Serializer("pickle", _pickle_dumps, pickle.loads)
)


def _raw_dumps(obj: Any) -> bytes:
    if not isinstance(obj, bytes):
        raise TypeError(f"raw serializer requires bytes, got {type(obj).__name__}")
    return obj


def _raw_loads(data: bytes) -> bytes:
    return data


# Identity codec: key_to_bytes(loads(data)) == b"b:" + data.
RawSerializer = register_serializer(
    Serializer("raw", _raw_dumps, _raw_loads, canonical_key_tag=b"b:")
)


def _str_dumps(obj: Any) -> bytes:
    if not isinstance(obj, str):
        raise TypeError(f"str serializer requires str, got {type(obj).__name__}")
    return obj.encode("utf-8")


# Pure UTF-8: key_to_bytes(loads(data)) == b"s:" + data (UTF-8
# round-trips exactly for every valid encoding).  ``bytes.decode``
# defaults to UTF-8; the unbound method as ``loads`` drops a Python
# frame per record on the reduce-side decode path.
StrSerializer = register_serializer(
    Serializer("str", _str_dumps, bytes.decode, canonical_key_tag=b"s:")
)

_INT_STRUCT = struct.Struct("!q")


def _int_dumps(obj: Any) -> bytes:
    # Exact-type fast path first: this runs once per written pair.
    if type(obj) is int:
        try:
            return _INT_STRUCT.pack(obj)
        except struct.error:
            # Fall back to a variable-length encoding for big ints,
            # tagged by length prefix impossibility: sign-magnitude
            # text.
            return b"L" + str(obj).encode("ascii")
    # bool is an int subclass but almost certainly a bug as a count.
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise TypeError(f"int serializer requires int, got {type(obj).__name__}")
    try:
        return _INT_STRUCT.pack(obj)
    except struct.error:
        return b"L" + str(obj).encode("ascii")


def _int_loads(data: bytes) -> int:
    if len(data) == _INT_STRUCT.size:
        return _INT_STRUCT.unpack(data)[0]
    if data[:1] == b"L":
        return int(data[1:])
    raise ValueError(f"malformed int encoding of length {len(data)}")


IntSerializer = register_serializer(Serializer("int", _int_dumps, _int_loads))


def _float_dumps(obj: Any) -> bytes:
    return struct.pack("!d", obj)


def _float_loads(data: bytes) -> float:
    return struct.unpack("!d", data)[0]


FloatSerializer = register_serializer(Serializer("float", _float_dumps, _float_loads))


# -- zero-copy mode ---------------------------------------------------
#
# One knob gates every buffer-protocol fast path (scatter-write,
# mmap-backed reads, sendfile): ``--mrs-zero-copy on|off``, mirrored
# into the ``MRS_ZERO_COPY`` environment variable so spawned workers
# and slaves inherit the choice.

_VALID_ZERO_COPY_MODES = ("on", "off")
_zero_copy_mode: Optional[str] = None


def zero_copy_mode() -> str:
    """The active zero-copy mode, initialized lazily from
    ``MRS_ZERO_COPY`` (default ``on``)."""
    global _zero_copy_mode
    if _zero_copy_mode is None:
        env = os.environ.get("MRS_ZERO_COPY", "on").strip().lower()
        _zero_copy_mode = env if env in _VALID_ZERO_COPY_MODES else "on"
    return _zero_copy_mode


def set_zero_copy_mode(mode: str) -> None:
    if mode not in _VALID_ZERO_COPY_MODES:
        raise ValueError(
            f"zero-copy mode must be one of {_VALID_ZERO_COPY_MODES}, "
            f"got {mode!r}"
        )
    global _zero_copy_mode
    _zero_copy_mode = mode
    # Mirror into the environment so spawned worker/slave processes
    # make the same choice.
    os.environ["MRS_ZERO_COPY"] = mode


def configure_zero_copy_from_opts(opts: Any) -> None:
    mode = getattr(opts, "zero_copy", None)
    if mode:
        set_zero_copy_mode(mode)


def zero_copy_enabled() -> bool:
    return zero_copy_mode() == "on"


def dumps_parts_for(serializer: Serializer) -> Optional[Callable[[Any], Tuple[Any, ...]]]:
    """The serializer's ``dumps_parts`` when the zero-copy knob allows
    it, else ``None`` (callers fall back to plain ``dumps``)."""
    parts = serializer.dumps_parts
    if parts is not None and zero_copy_enabled():
        return parts
    return None


def loads_view_for(serializer: Serializer) -> Optional[Callable[[Any], Any]]:
    """The serializer's ``loads_view`` when the zero-copy knob allows
    it, else ``None`` (callers fall back to plain ``loads``)."""
    view = serializer.loads_view
    if view is not None and zero_copy_enabled():
        return view
    return None


# -- numpy ------------------------------------------------------------
#
# Wire format: a small self-describing header followed by the raw
# C-contiguous array buffer —
#
#   !HB  dtype-string length, ndim
#   ...  dtype string (numpy ``dtype.str``, e.g. ``<f8`` — includes
#        byte order, so files travel between hosts)
#   !Q*  one dimension per ndim
#   ...  raw buffer (``arr.tobytes()`` equivalent)
#
# ``dumps_parts`` returns ``(header, memoryview(arr))`` so writers can
# scatter the two without ever materializing header+payload as one
# ``bytes``; ``loads_view`` rebuilds the array as a view over whatever
# buffer the reader hands it (an mmap'd file region costs no copy at
# all).  ``loads``/``loads_view`` return read-only arrays when the
# backing buffer is read-only — call ``numpy.copy`` before mutating.

_NP_HEADER = struct.Struct("!HB")


def _numpy_header(arr: Any) -> bytes:
    dtype_str = arr.dtype.str.encode("ascii")
    return (
        _NP_HEADER.pack(len(dtype_str), arr.ndim)
        + dtype_str
        + struct.pack(f"!{arr.ndim}Q", *arr.shape)
    )


def _numpy_contiguous(obj: Any) -> Any:
    import numpy

    if not isinstance(obj, numpy.ndarray):
        raise TypeError(
            f"numpy serializer requires numpy.ndarray, got {type(obj).__name__}"
        )
    if obj.dtype.hasobject:
        raise TypeError("numpy serializer cannot encode object-dtype arrays")
    if not obj.flags.c_contiguous:
        # ascontiguousarray also promotes 0-d to 1-d, so only call it
        # when a copy is actually needed (0-d is always contiguous).
        return numpy.ascontiguousarray(obj)
    return obj


def _numpy_dumps_parts(obj: Any) -> Tuple[bytes, Any]:
    arr = _numpy_contiguous(obj)
    if arr.ndim == 0 or arr.size == 0:
        # memoryview.cast rejects 0-d and zero-length shapes; these
        # payloads are at most one item, so copying is free.
        return (_numpy_header(arr), arr.tobytes())
    return (_numpy_header(arr), memoryview(arr).cast("B"))


def _numpy_dumps(obj: Any) -> bytes:
    arr = _numpy_contiguous(obj)
    return _numpy_header(arr) + arr.tobytes()


def _numpy_loads_view(view: Any) -> Any:
    import numpy

    mv = memoryview(view)
    dtype_len, ndim = _NP_HEADER.unpack_from(mv, 0)
    pos = _NP_HEADER.size
    dtype = numpy.dtype(bytes(mv[pos : pos + dtype_len]).decode("ascii"))
    pos += dtype_len
    shape = struct.unpack_from(f"!{ndim}Q", mv, pos)
    pos += 8 * ndim
    arr = numpy.frombuffer(mv, dtype=dtype, offset=pos)
    return arr.reshape(shape)


NumpySerializer = register_serializer(
    Serializer(
        "numpy",
        _numpy_dumps,
        _numpy_loads_view,  # zero-copy over bytes too
        dumps_parts=_numpy_dumps_parts,
        loads_view=_numpy_loads_view,
    )
)
