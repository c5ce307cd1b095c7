"""Shared low-level utilities for the Mrs reproduction.

Everything in this package is dependency-free (stdlib only) so that the
framework core can honour the paper's "depends only on the standard
library" constraint (section IV).
"""

from repro.util.hashing import stable_hash, stable_hash_bytes

__all__ = [
    "stable_hash",
    "stable_hash_bytes",
]
