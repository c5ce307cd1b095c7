"""Mock-parallel implementation (section IV-A).

Splits work into exactly the same tasks as the master/slave
implementation but performs all computation on a single processor, and
forces *every* intermediate bucket through a file on disk.  Data that
survives serialization, a filesystem round-trip, and re-parsing here
will also survive the distributed data plane — which is why the paper
recommends this mode for debugging ("Intermediate data between tasks is
saved to files which can be helpful for debugging").

It is the serial backend with a different bucket policy: same FIFO
sweep, same task loop, but every dataset has an output directory (so
its buckets are always files) and intermediate buckets' in-memory pairs
are dropped as soon as they are written.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
from typing import Optional

from repro.core.dataset import ComputedData
from repro.core.job import Job
from repro.runtime.serial import SerialBackend


class MockParallelBackend(SerialBackend):
    #: Mimic a small cluster's task decomposition by default.
    default_splits = 4
    role = "mockparallel"

    def __init__(
        self,
        program=None,
        tmpdir: Optional[str] = None,
        default_splits: Optional[int] = None,
        opts=None,
    ):
        super().__init__(program, opts)
        if tmpdir:
            self.tmpdir = tmpdir
        else:
            # Callers read bucket files after the run (run_program's
            # contract), so a backend-owned tmpdir must outlive close();
            # reclaim it at interpreter exit instead.
            self.tmpdir = tempfile.mkdtemp(prefix="mrs_mockp_")
            atexit.register(shutil.rmtree, self.tmpdir, ignore_errors=True)
        if default_splits:
            self.default_splits = default_splits

    def _output_dir(self, dataset: ComputedData) -> str:
        return dataset.outdir or os.path.join(self.tmpdir, dataset.id)

    def _commit_bucket(self, dataset: ComputedData, bucket) -> None:
        # Drop the in-memory copy of intermediate data: downstream
        # tasks must re-read through the file, exercising the format
        # and serializer layers.  User-facing output keeps its pairs
        # (its on-disk format, e.g. text, may be write-only).
        if dataset.outdir is None:
            bucket.clean()
        super()._commit_bucket(dataset, bucket)

    def remove_data(self, dataset_id: str, job: Job) -> None:
        dataset_dir = os.path.join(self.tmpdir, dataset_id)
        if os.path.isdir(dataset_dir):
            for name in os.listdir(dataset_dir):
                try:
                    os.unlink(os.path.join(dataset_dir, name))
                except OSError:
                    pass
        super().remove_data(dataset_id, job)
