"""``sort_http``: the same io/native layers as ``wc_zipf`` used the
other way round.

Unique keys and no combiner, so every record crosses spill ->
DataServer -> comm.transfer -> k-way merge -> text output, placed by a
range partitioner instead of the hash.  A shuffle or transfer gain
shows here and must not show on ``wc_zipf``.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Any, Dict, List, Tuple

import numpy as np

from bench import harness, layers
from bench.workloads.base import BatchWorkload

from repro.apps.sort import DistributedSort
from repro.core.main import run_program
from repro.core.program import expand_input_paths
from repro.io.formats import default_read_pairs

REDUCE_TASKS = 8
LINE_BYTES = 57  # 56 characters and the newline
ALPHABET = np.frombuffer(
    b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz",
    dtype=np.uint8,
)


def concatenated(files: Dict[Tuple[int, int], bytes]) -> bytes:
    """Output splits joined in (split, source) order: the globally
    sorted file a user would ``cat`` together."""
    return b"".join(files[key] for key in sorted(files))


class SortHttp(BatchWorkload):
    name = "sort_http"
    program_class = DistributedSort
    backend = "http"
    full = {"lines": 200_000, "files": 8}
    smoke = {"lines": 20_000, "files": 8}

    def generate(self, directory: str) -> None:
        self.inputs = os.path.join(directory, "lines")
        os.makedirs(self.inputs)
        rng = np.random.default_rng(self.seed)
        n, files = self.size["lines"], self.size["files"]
        table = ALPHABET[rng.integers(0, len(ALPHABET), size=(n, LINE_BYTES))]
        table[:, -1] = ord("\n")
        for i, part in enumerate(np.array_split(table, files)):
            with open(os.path.join(self.inputs, f"part-{i:02d}.txt"), "wb") as f:
                f.write(part.tobytes())
        self.table = table

    def args(self, outdir: str) -> List[str]:
        # first_byte_partition maps a key's first byte onto the splits
        # in proportion to the whole byte range, so alphanumeric lines
        # only ever reach splits 1-3 of 8 (digits, upper, lower): three
        # reduce tasks with work for two slaves, five empty ones.
        return ["--mrs-reduce-tasks", str(REDUCE_TASKS), self.inputs, outdir]

    def prepare(self) -> None:
        refdir = self.work.fresh("ref")
        self.serial_job_s, _ = harness.timed(
            run_program, DistributedSort, self.args(refdir), impl="serial"
        )
        self.reference = concatenated(harness.read_outputs(refdir))
        # The reference itself is checked against a sort that shares no
        # code with the framework: globally sorted, duplicates counted.
        lines = self.table.tobytes().decode("ascii").split("\n")[:-1]
        counts = Counter(lines)
        expected = "".join(f"{line}\t{counts[line]}\n" for line in sorted(counts))
        if self.reference != expected.encode("ascii"):
            raise RuntimeError("serial sort output is not the sorted input")

    def verify(self, program: Any, outdir: str) -> bool:
        rendered = harness.rendered_outputs(program)
        self.text_outputs_empty = harness.empty_text_outputs(rendered, outdir)
        return concatenated(rendered) == self.reference

    def replay(self, replay: Any) -> bool:
        program = self.last_program
        self.files = expand_input_paths([self.inputs])
        mapped = replay.map_stage(
            [lambda path=path: replay.read_files([path]) for path in self.files],
            program.map, REDUCE_TASKS, parter=program.partition,
        )
        self.spill = max(
            (s for row in mapped.buckets for s in row),
            key=lambda s: os.path.getsize(s.path),
        )
        reduced = replay.reduce_stage(
            mapped, program.reduce, REDUCE_TASKS, parter=program.partition
        )
        return concatenated(replay.text_output(reduced)) == self.reference

    def probes(self, replay: Any, root: str, job_s: float) -> Dict[str, float]:
        parter = self.last_program.partition
        out = {
            "io.bucket.text_outputs_empty": float(self.text_outputs_empty),
            "comm.dataserver.serve_mb_per_s": layers.dataserver_throughput(
                root, self.spill.path),
        }
        out.update(layers.serializer_costs(replay.sample, None, None))
        out.update(layers.partition_costs(replay.sample, REDUCE_TASKS, parter))
        out.update(layers.native_kernel_costs(replay.sample, REDUCE_TASKS, None))
        out.update(layers.taskrunner_costs(
            self.last_program, list(default_read_pairs(self.files[0])),
            REDUCE_TASKS, False, root,
        ))
        return out
