"""Programs used by integration tests (importable by slave_boot)."""

import os
import signal
import time

import repro as mrs


class FailingMap(mrs.MapReduce):
    """Map that always raises — exercises task-failure propagation."""

    def map(self, key, value):
        raise ValueError("injected failure")

    def reduce(self, key, values):
        yield sum(values)

    def run(self, job):
        source = job.local_data([(i, i) for i in range(4)], splits=2)
        mapped = job.map_data(source, self.map, splits=2)
        reduced = job.reduce_data(mapped, self.reduce, splits=1)
        job.wait(reduced, timeout=60)
        self.output_data = reduced
        return 0


class FlakyOnce(mrs.MapReduce):
    """Map that fails on the first attempt of task 0 (per process).

    Because the retry lands on a *different* slave (or a fresh
    attempt), the job still completes — exercising the retry path
    rather than the permanent-failure path.
    """

    attempts = 0

    def map(self, key, value):
        if key == 0:
            type(self).attempts += 1
            if type(self).attempts == 1:
                raise RuntimeError("flaky first attempt")
        yield (key % 2, value)

    def reduce(self, key, values):
        yield sum(values)

    def run(self, job):
        source = job.local_data([(i, 1) for i in range(6)], splits=3)
        mapped = job.map_data(source, self.map, splits=2)
        reduced = job.reduce_data(mapped, self.reduce, splits=1)
        job.wait(reduced, timeout=60)
        self.output_data = reduced
        return 0


class SummingProgram(mrs.MapReduce):
    """Simple two-stage program driven manually by recovery tests."""

    def map(self, key, value):
        yield (key % 2, value)

    def reduce(self, key, values):
        yield sum(values)


class ModSumProgram(mrs.MapReduce):
    """Iterative-shaped program whose reduce keeps its input's
    partitioner and split count.  ``map`` increments every value so
    each pass is observable in the output."""

    def mod4(self, key, n):
        return int(key) % n

    def map(self, key, value):
        yield (key, value + 1)

    def reduce(self, key, values):
        yield sum(values)


class SlowCount(mrs.MapReduce):
    """Word count whose map dawdles — gives cancel/fairness tests a
    window while the job is genuinely running."""

    #: Seconds each map task sleeps before emitting.
    delay = 0.3

    def map(self, key, value):
        time.sleep(self.delay)
        for word in str(value).split():
            yield (word, 1)

    def reduce(self, key, values):
        yield sum(values)

    def run(self, job):
        source = job.local_data(
            [(i, "tick tock") for i in range(16)], splits=8
        )
        mapped = job.map_data(source, self.map, splits=2)
        reduced = job.reduce_data(
            mapped, self.reduce, splits=1,
            outdir=self.output_dir, format="txt",
        )
        job.wait(reduced, timeout=120)
        self.output_data = reduced
        return 0


class TypedWordCount(mrs.MapReduce):
    """WordCount whose datasets declare str/int typed serializers —
    slaves must honour the codec names from task descriptors."""

    def map(self, key, value):
        for word in value.split():
            yield (word, 1)

    def reduce(self, key, values):
        yield sum(values)

    def run(self, job):
        source = self.input_data(job)
        intermediate = job.map_data(
            source, self.map, splits=2,
            key_serializer="str", value_serializer="int",
        )
        output = job.reduce_data(
            intermediate, self.reduce, splits=2,
            outdir=self.output_dir, format="txt",
        )
        job.wait(output)
        self.output_data = output
        return 0


class OrderedJoin(mrs.MapReduce):
    """A reduce that is not commutative: each word's file tags joined in
    the order the values arrive, so any change in the order a reduce
    sees its inputs changes the output bytes.

    Every input line starts with its file's tag.  A ``CRASH:<marker>``
    word SIGKILLs the worker mapping it unless the marker file exists
    (the marker is made first, so the retry goes through).
    """

    def input_data(self, job):
        self.input = super().input_data(job)
        return self.input

    def map(self, key, value):
        tag, *words = value.split()
        for word in words:
            marker = word[len("CRASH:"):]
            if word.startswith("CRASH:") and not os.path.exists(marker):
                with open(marker, "w"):
                    pass
                os.kill(os.getpid(), signal.SIGKILL)
            yield (word, tag)

    def reduce(self, key, values):
        yield ",".join(values)
