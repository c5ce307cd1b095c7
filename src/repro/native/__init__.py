"""Native (C) code compiled on demand and loaded with :mod:`ctypes`.

The paper's thesis is "Python for the framework, C for the inner loop"
(section V-B, Fig 3b): the framework, its shuffle included, is pure
Python, and a program puts C in its own inner loop, as the Pi
application does (``repro.apps.pi.halton_ctypes``).

* :mod:`repro.native.compile` — compiler discovery (honouring ``CC``),
  per-user build cache, and atomic compile-and-load helpers, with a
  :class:`CompilerUnavailable` error the caller turns into a
  pure-Python fallback.
* :mod:`repro.native.kernels` — C shuffle probes that only the
  benchmark imports; no job calls them.
"""

from repro.native.compile import CompilerUnavailable  # noqa: F401
