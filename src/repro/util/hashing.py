"""Deterministic hashing helpers.

Partition functions must behave identically in every process of a job:
the master, every slave, and every worker subprocess must agree on which
split a key belongs to.  Python's builtin ``hash`` is randomized per
process for ``str``/``bytes`` (PYTHONHASHSEED), so the framework never
uses it for placement decisions.  These helpers provide a stable,
process-independent hash built on :mod:`hashlib`.
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any

# The single pinned pickle protocol for the whole framework: canonical
# key bytes here AND the default value serializer (io/serializers.py)
# both use it, so a mixed-version cluster never disagrees about wire
# bytes and hashes stay reproducible across interpreter upgrades.
# Protocol 4 (available since CPython 3.4) is deterministic for the
# types used as MapReduce keys (str, bytes, int, float, tuples thereof)
# and — unlike protocol 2 — frames binary payloads efficiently, which
# matters for pickled values.  ``HIGHEST_PROTOCOL`` would drift with
# the interpreter; a literal cannot.
PICKLE_PROTOCOL = 4

# Backward-compatible alias (pre-unification name).
_PICKLE_PROTOCOL = PICKLE_PROTOCOL


_crc32 = zlib.crc32
# Fibonacci-hashing multiplier (golden ratio scaled to 64 bits): spreads
# the CRC's 32 bits across the full word so any ``% n_splits`` sees
# well-mixed high and low bits.
#
# The benchmark's C probe (src/repro/native/_shuffle.c: mrs_hash64)
# mirrors crc32 * _MIX mod 2^64 for its partition_scatter timing, and
# tests/io/test_native_kernels.py locks the parity; no job calls it.
_MIX = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF


def stable_hash_bytes(data: bytes) -> int:
    """Return a stable 64-bit unsigned hash of ``data``.

    Placement only needs determinism across processes and platforms,
    not cryptographic strength — and this runs once per emitted record,
    so it must be cheap.  CRC-32 (C-speed, seed-independent, identical
    on every platform) followed by a Fibonacci multiply to spread the
    bits over 64 positions replaces the previous per-record
    ``hashlib.blake2b`` construction, which cost more than the key
    encoding it hashed.
    """
    return (_crc32(data) * _MIX) & _MASK


def _key_to_bytes_general(key: Any) -> bytes:
    """The full dispatch chain for keys whose exact type has no fast
    path: subclasses of the common types, and everything pickled."""
    if isinstance(key, bytes):
        return b"b:" + key
    if isinstance(key, str):
        return b"s:" + key.encode("utf-8")
    if isinstance(key, bool):
        # bool is an int subclass; tag it distinctly.
        return b"B:" + (b"1" if key else b"0")
    if isinstance(key, int):
        cls = type(key)
        type_tag = f"{cls.__module__}.{cls.__qualname__}".encode("utf-8")
        return b"I:" + type_tag + b":" + str(int(key)).encode("ascii")
    return b"p:" + pickle.dumps(key, _PICKLE_PROTOCOL)


def key_to_bytes(key: Any) -> bytes:
    """Encode a key to bytes for hashing.

    Strings and bytes get a direct, canonical encoding; other objects
    fall back to a pinned-protocol pickle.  A leading type tag prevents
    collisions between, e.g., the string ``"1"`` and the integer ``1``
    having accidentally identical encodings.

    ``int`` *subclasses* (``enum.IntEnum`` and friends) are tagged with
    their qualified type name rather than routed through the plain-int
    branch: an ``IntEnum`` key must not silently collide with its
    integer value, because two processes of one job may disagree about
    which of the two types a key has (e.g. a slave that rebuilt the key
    from serialized data as a plain int) and placement decisions would
    then diverge.  ``bool`` keeps its own dedicated tag.

    This runs once per emitted record on the encode-once data plane,
    so the common key types take exact-``type`` fast paths; subclasses
    and everything else drop to the general isinstance chain, which
    preserves their distinct type tags.
    """
    tp = type(key)
    if tp is str:
        return b"s:" + key.encode("utf-8")
    if tp is bytes:
        return b"b:" + key
    if tp is int:
        return b"i:" + str(key).encode("ascii")
    if tp is bool:
        return b"B:" + (b"1" if key else b"0")
    return _key_to_bytes_general(key)


def stable_hash(key: Any) -> int:
    """Return a stable 64-bit unsigned hash of an arbitrary key."""
    return stable_hash_bytes(key_to_bytes(key))
