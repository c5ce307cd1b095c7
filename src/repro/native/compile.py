"""On-demand C compilation for ctypes kernels.

Generalizes the pattern introduced by ``repro.apps.pi.halton_ctypes``:
compile a single-file C source with the system compiler into a per-user
cache directory, atomically, and load it with :mod:`ctypes`.  The
pieces every kernel needs are factored here so they behave identically:

* :func:`find_compiler` — honours the ``CC`` environment variable
  before probing ``cc``/``gcc``/``clang`` on ``PATH``.
* :func:`user_cache_tag` — a per-user discriminator for the cache
  directory that does not require :func:`os.getuid` (unavailable on
  some platforms); falls back to :func:`getpass.getuser`.
* :func:`build_shared_library` — hash-addressed compile with an atomic
  rename, safe against concurrent builders in other processes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shlex
import subprocess
import tempfile
from typing import List, Optional


class CompilerUnavailable(RuntimeError):
    """No working C compiler (or compilation failed)."""


def find_compiler() -> Optional[List[str]]:
    """Locate a C compiler command, or ``None``.

    The ``CC`` environment variable wins when set: it is split like a
    shell word list (so ``CC="gcc -m64"`` works) and its executable is
    resolved against ``PATH`` when not an absolute path.  A ``CC`` that
    names a missing executable makes the compiler *unavailable* rather
    than silently probing fallbacks — an explicit ``CC`` expresses
    intent, and quietly substituting another compiler would hide
    misconfiguration.  Without ``CC``, the first of ``cc``, ``gcc``,
    ``clang`` found on ``PATH`` is used.
    """
    cc = os.environ.get("CC")
    if cc is not None and cc.strip():
        words = shlex.split(cc)
        resolved = _which(words[0])
        if resolved is None:
            return None
        return [resolved, *words[1:]]
    for name in ("cc", "gcc", "clang"):
        resolved = _which(name)
        if resolved is not None:
            return [resolved]
    return None


def _which(name: str) -> Optional[str]:
    if os.path.sep in name:
        return name if os.access(name, os.X_OK) else None
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        candidate = os.path.join(directory, name)
        if os.access(candidate, os.X_OK):
            return candidate
    return None


def user_cache_tag() -> str:
    """A per-user tag for shared-tmpdir cache directories.

    ``os.getuid`` does not exist everywhere (e.g. native Windows), so
    fall back to :func:`getpass.getuser`, sanitized to filename-safe
    characters; a last-resort constant keeps the cache usable even when
    the environment has no notion of a user at all.
    """
    getuid = getattr(os, "getuid", None)
    if getuid is not None:
        return str(getuid())
    try:
        import getpass

        return re.sub(r"[^A-Za-z0-9_.-]", "_", getpass.getuser()) or "user"
    except Exception:
        return "user"


def cache_dir(prefix: str) -> str:
    """The per-user build cache directory for ``prefix`` (created)."""
    path = os.path.join(tempfile.gettempdir(), f"{prefix}_{user_cache_tag()}")
    os.makedirs(path, exist_ok=True)
    return path


def build_shared_library(
    source_path: str,
    cache_prefix: str,
    cflags: List[str],
    name: Optional[str] = None,
) -> str:
    """Compile ``source_path`` into the cache; return the ``.so`` path.

    The output name is addressed by a hash of the source, the flags,
    and the compiler command, so a source or toolchain change builds a
    fresh object while older processes keep their loaded copy.  The
    build lands under a process-unique temporary name and is renamed
    into place, which makes concurrent builds race-free.

    Raises :class:`CompilerUnavailable` when no compiler can be found
    or the compile fails.
    """
    compiler = find_compiler()
    if compiler is None:
        if os.environ.get("CC"):
            raise CompilerUnavailable(
                f"CC={os.environ['CC']!r} does not name an executable"
            )
        raise CompilerUnavailable("no C compiler on PATH (cc/gcc/clang)")
    with open(source_path, "rb") as f:
        source = f.read()
    fingerprint = source + " ".join([*compiler, *cflags]).encode()
    tag = hashlib.sha256(fingerprint).hexdigest()[:16]
    stem = name or os.path.splitext(os.path.basename(source_path))[0].lstrip("_")
    so_path = os.path.join(cache_dir(cache_prefix), f"{stem}_{tag}.so")
    if not os.path.exists(so_path):
        build_path = so_path + f".build{os.getpid()}"
        command = [*compiler, *cflags, "-o", build_path, source_path]
        try:
            result = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise CompilerUnavailable(f"cannot run {compiler[0]}: {exc}") from exc
        if result.returncode != 0:
            raise CompilerUnavailable(
                f"compilation failed: {result.stderr.strip()}"
            )
        os.replace(build_path, so_path)  # atomic against racers
    return so_path


def load_shared_library(
    source_path: str, cache_prefix: str, cflags: List[str]
) -> ctypes.CDLL:
    """Compile (if needed) and load ``source_path`` as a CDLL."""
    return ctypes.CDLL(build_shared_library(source_path, cache_prefix, cflags))
