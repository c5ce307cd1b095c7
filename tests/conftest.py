"""Shared fixtures for the test suite.

The autouse teardown assertion here is the run-directory hygiene
backstop for every suite: any backend-owned temp directory
(``mrs_master_*``, ``mrs_slave_*``, ``mrs_mp_*``) created during a test
must be gone when the test ends — a leftover one means a
``close()``/``shutdown()`` path, or a start that failed, leaked it (the
bug class behind cancel-mid-merge leaks).  Tests can hold individual
run directories inside a caller-owned tmpdir to the same rule (see the
fixture).
"""

import glob
import os
import shutil
import tempfile
import threading

import pytest

from repro.datagen import CorpusSpec, generate_corpus

#: mkdtemp prefixes owned by masters (``mrs_mp_``: with forked slaves)
#: and slaves.  ``mrs_mockp_``
#: and ``mrs_cluster_`` are deliberately absent: mockparallel and
#: LocalCluster outputs are read *after* close()/stop() (run_program's
#: and run_on_cluster's contract), so those directories live until
#: interpreter exit (reclaimed via atexit).
_BACKEND_PREFIXES = ("mrs_master_", "mrs_slave_", "mrs_mp_")


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


#: Threads a launch starts: the three listeners' serving threads, the
#: master's watchdog and the waiters of forked slaves.
_LAUNCH_THREADS = (
    "rpc-server-",
    "data-server-",
    "status-server-",
    "master-watchdog",
    "slave-waiter-",
)


@pytest.fixture
def launch_leftovers():
    """Snapshot, then return a callable listing what a launch left
    behind since: live listener/watchdog threads and ``/tmp/mrs_*``
    directories."""
    threads = set(threading.enumerate())
    pattern = os.path.join(tempfile.gettempdir(), "mrs_*")
    dirs = set(glob.glob(pattern))

    def leftovers():
        new = [
            thread
            for thread in threading.enumerate()
            if thread not in threads and thread.name.startswith(_LAUNCH_THREADS)
        ]
        for thread in new:
            thread.join(5.0)
        left = [thread.name for thread in new if thread.is_alive()]
        return left + sorted(set(glob.glob(pattern)) - dirs)

    return leftovers


@pytest.fixture
def text_file(tmp_path):
    """A small multi-line text file."""
    path = tmp_path / "input.txt"
    path.write_text(
        "the quick brown fox\n"
        "jumps over the lazy dog\n"
        "the dog sleeps\n"
    )
    return str(path)


@pytest.fixture
def out_dir(tmp_path):
    return str(tmp_path / "out")


@pytest.fixture
def small_corpus(tmp_path):
    """A 12-file gutenberg-layout synthetic corpus."""
    root = str(tmp_path / "corpus")
    spec = CorpusSpec(n_files=12, mean_words_per_file=120, seed=1)
    paths = generate_corpus(root, spec)
    return root, paths


def pair_dict(pairs):
    """Collect (k, v) pairs into a dict, asserting unique keys."""
    out = {}
    for key, value in pairs:
        assert key not in out, f"duplicate key {key!r}"
        out[key] = value
    return out
