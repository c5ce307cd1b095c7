"""Shared runtime-test fixtures.

The autouse teardown assertion here is the spill-file hygiene
backstop: any backend-owned temp directory (``mrs_master_*``,
``mrs_slave_*``, ``mrs_mp_*``, ``mrs_mockp_*``, ``mrs_cluster_*``)
created during a test must be gone when the test ends — a leftover one
means a ``close()``/``shutdown()`` path leaked FileBucket spill files
(the bug class behind cancel-mid-merge leaks).  Tests can hold
individual run directories inside a caller-owned tmpdir to the same
rule (see the fixture).
"""

import glob
import os
import shutil
import tempfile

import pytest

#: mkdtemp prefixes owned by backends, masters, slaves, and clusters.
#: mrs_mockp_ is deliberately absent: mockparallel outputs are read
#: *after* close() (run_program's contract), so its owned tmpdir lives
#: until interpreter exit (reclaimed via atexit).
_BACKEND_PREFIXES = (
    "mrs_master_",
    "mrs_slave_",
    "mrs_mp_",
    "mrs_cluster_",
)


def _backend_tmpdirs():
    base = tempfile.gettempdir()
    found = set()
    for prefix in _BACKEND_PREFIXES:
        found.update(glob.glob(os.path.join(base, prefix + "*")))
    return found


@pytest.fixture(autouse=True)
def assert_no_tmpdir_leak():
    """Fail any test that leaves a backend-owned tmpdir behind.

    Yields a list: a test that runs a backend in a *caller-owned*
    tmpdir appends the run directories it expects the backend to have
    deleted by itself (released or failed datasets), and they are held
    to the same standard.
    """
    before = _backend_tmpdirs()
    expected_gone = []
    yield expected_gone
    leaked = sorted(_backend_tmpdirs() - before)
    leaked += [path for path in expected_gone if os.path.exists(path)]
    # Clean up before failing so one leak cannot cascade into
    # unrelated failures later in the session.
    for path in leaked:
        shutil.rmtree(path, ignore_errors=True)
    assert not leaked, f"backend-owned tmpdirs leaked: {leaked}"
