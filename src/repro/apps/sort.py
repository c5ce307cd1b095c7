"""Distributed sort (TeraSort's little sibling).

Demonstrates the custom-partitioner API: a range partitioner sends
lexicographically earlier keys to lower splits, and since each reduce
task's output is key-sorted (the framework sorts before grouping),
concatenating the output splits *in order* yields a globally sorted
result — the same trick TeraSort uses at scale.

    python -m repro.apps.sort input.txt out_dir
"""

from __future__ import annotations

from typing import Any, Iterator, List, Tuple

import repro as mrs
from repro.io.partition import first_byte_partition


class DistributedSort(mrs.MapReduce):
    """Sort input lines; output split s holds the s-th key range."""

    def map(self, key: Any, value: str) -> Iterator[Tuple[str, int]]:
        # Identity on the line, counting duplicates.
        yield (value, 1)

    def reduce(self, key: str, values: Iterator[int]) -> Iterator[int]:
        yield sum(values)

    # The range partitioner is what makes split concatenation globally
    # sorted (for ASCII-dominated keys).
    def partition(self, key: Any, n_splits: int) -> int:
        return first_byte_partition(key, n_splits)

    def run(self, job: mrs.Job) -> int:
        source = self.input_data(job)
        shuffled = job.map_data(source, self.map)
        output = job.reduce_data(
            shuffled, self.reduce, outdir=self.output_dir, format="txt"
        )
        job.wait(output)
        self.output_data = output
        return 0


def sorted_lines(program: DistributedSort) -> List[str]:
    """Concatenate output splits in order; expand duplicate counts."""
    out: List[str] = []
    dataset = program.output_data
    for split in range(dataset.splits):
        # Within a split the reduce already saw keys in sorted order;
        # buckets store them in emission order.
        for line, count in dataset.splitdata(split):
            out.extend([line] * count)
    return out


if __name__ == "__main__":
    mrs.exit_main(DistributedSort)
