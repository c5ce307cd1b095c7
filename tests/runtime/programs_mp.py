"""Programs used by the parallel-runtime tests.

These live in an importable module (not a test body) because exec'd
slaves (``LocalCluster``) import the program class by name.
"""

import os
import signal
import time

import repro as mrs


class Tally(mrs.MapReduce):
    """Small deterministic two-stage program."""

    def map(self, key, value):
        yield (value % 3, 1)

    def reduce(self, key, values):
        yield sum(values)


class Rotate(mrs.MapReduce):
    """One iteration rotates every value to the next key.

    The state after ``k`` iterations depends on ``k`` (modulo
    ``nkeys``), so a resumed run that silently lost or repeated an
    iteration produces a different answer — exactly what the
    checkpoint-resumption tests need to detect.
    """

    nkeys = 4

    def map(self, key, value):
        yield ((key + 1) % self.nkeys, value)

    def reduce(self, key, values):
        yield sum(values)


class CrashOnce(mrs.MapReduce):
    """Map that SIGKILLs its own slave process on the first attempt.

    The first positional argument is a marker-file path shared through
    the filesystem (a class attribute cannot guard across processes):
    the first slave to see key 0 creates the marker and dies without
    any chance to report, exercising the loss of a forked slave, the
    task's requeue and strike, and the respawn.
    """

    def map(self, key, value):
        marker = self.args[0]
        always = len(self.args) > 1 and self.args[1] == "always"
        if key == 0 and (always or not os.path.exists(marker)):
            if not always:
                with open(marker, "w"):
                    pass
            os.kill(os.getpid(), signal.SIGKILL)
        yield (key % 2, value)

    def reduce(self, key, values):
        yield sum(values)


class Stall(mrs.MapReduce):
    """Map that, at key 0, writes its slave's pid to ``<dir>/running``
    and waits until ``<dir>/go`` exists: a task held in flight for as
    long as a test needs."""

    def map(self, key, value):
        if key == 0:
            directory = self.args[0]
            with open(os.path.join(directory, "running"), "w") as f:
                f.write(str(os.getpid()))
            deadline = time.monotonic() + 30
            while not os.path.exists(os.path.join(directory, "go")):
                assert time.monotonic() < deadline, "never released"
                time.sleep(0.005)
        yield (key % 2, value)

    def reduce(self, key, values):
        yield sum(values)
