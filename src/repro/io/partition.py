"""Partition functions.

A partition function maps ``(key, n_splits) -> split`` — the same
signature whether it is a module-level function or a program method
(the framework resolves the operation's ``parter_name`` on the program
instance and calls it per emitted key).

The contract required by the framework:

* deterministic across processes (no dependence on ``PYTHONHASHSEED``),
* output in ``range(n_splits)`` for every key,
* equal keys always land in the same split.

Encode-once fast path: a partitioner may expose a ``partition_bytes``
attribute, a function ``(keybytes, n_splits) -> split`` that must agree
with the partitioner for every key, where ``keybytes`` is the key's
canonical encoding (:func:`repro.util.hashing.key_to_bytes`).  The emit
loop computes those bytes once per record anyway (for sort and merge),
so a byte-level partitioner avoids a second encode per pair.  The
default hash partitioner provides it; partitioners that need the live
key (``mod_partition``) simply don't.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.util.hashing import _MASK, _MIX, _crc32, stable_hash


def hash_partition(key: Any, n_splits: int) -> int:
    """Default partitioner: stable hash of the key, modulo splits."""
    if n_splits <= 0:
        raise ValueError(f"n_splits must be positive, got {n_splits}")
    if n_splits == 1:
        return 0
    return stable_hash(key) % n_splits


def hash_partition_bytes(keybytes: bytes, n_splits: int) -> int:
    """``hash_partition`` on pre-encoded canonical key bytes.

    The hash is ``stable_hash_bytes`` inlined (this runs once per
    emitted record, so the extra call is worth shaving).
    """
    if n_splits <= 0:
        raise ValueError(f"n_splits must be positive, got {n_splits}")
    if n_splits == 1:
        return 0
    return ((_crc32(keybytes) * _MIX) & _MASK) % n_splits


hash_partition.partition_bytes = hash_partition_bytes


def hash_partition_splits(keys: Sequence[bytes], n_splits: int) -> Sequence[int]:
    """Split ids for a whole batch of canonical key bytes:
    ``[hash_partition_bytes(kb, n_splits) for kb in keys]``, with the
    hash inlined as the batch emitter (``taskrunner._HashEmitter``)
    inlines it.  The benchmark times routing with it
    (``io.partition.route_us``).
    """
    if n_splits <= 0:
        raise ValueError(f"n_splits must be positive, got {n_splits}")
    if n_splits == 1:
        return [0] * len(keys)
    mix, mask, crc = _MIX, _MASK, _crc32
    return [((crc(kb) * mix) & mask) % n_splits for kb in keys]


def mod_partition(key: Any, n_splits: int) -> int:
    """Partition integer keys by value modulo splits.

    Useful for iterative numeric programs (e.g. PSO particle ids) where
    the programmer wants task *i* of every iteration to hold the same
    keys, maximising the benefit of the scheduler's iteration affinity.
    """
    if n_splits <= 0:
        raise ValueError(f"n_splits must be positive, got {n_splits}")
    return int(key) % n_splits


def first_byte_partition(key: Any, n_splits: int) -> int:
    """Partition by the first byte of the key's UTF-8/byte form.

    Produces runs of lexicographically adjacent keys in the same split,
    which gives globally sorted output when splits are concatenated in
    order (for ASCII-dominated key sets).
    """
    if n_splits <= 0:
        raise ValueError(f"n_splits must be positive, got {n_splits}")
    if isinstance(key, str):
        data = key.encode("utf-8")
    elif isinstance(key, bytes):
        data = key
    else:
        data = str(key).encode("utf-8")
    first = data[0] if data else 0
    return first * n_splits // 256
