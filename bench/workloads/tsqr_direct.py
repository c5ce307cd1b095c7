"""``tsqr_direct``: a few multi-megabyte ndarray records.

Direct TSQR moves whole matrix blocks through scatter-write, mmap and
``loads_view`` — the large-value use of io.formats / io.serializers
that a small-record optimisation can silently hurt.  NumPy compute
dominates; framework overhead is small.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from bench import harness, layers
from bench.workloads.base import BatchWorkload

from repro.apps.tsqr.numerics import (
    R_KEY, orthogonality_error, reconstruction_error,
)
from repro.apps.tsqr.programs import DirectTSQR
from repro.core.main import run_program

TOLERANCE = 1e-8


class BenchDirectTSQR(DirectTSQR):
    """Direct TSQR whose ``run`` only factors: the benchmark checks the
    residuals itself, outside the timed region."""

    def run(self, job):
        self.Q, self.R = self.factor(job)
        return 0


def residuals_ok(program: DirectTSQR) -> bool:
    A = program.full_matrix()
    return (
        orthogonality_error(program.Q) < TOLERANCE
        and reconstruction_error(A, program.Q, program.R) < TOLERANCE
    )


class TsqrDirect(BatchWorkload):
    name = "tsqr_direct"
    program_class = BenchDirectTSQR
    backend = "multiprocess"
    full = {"rows": 200_000, "cols": 32, "blocks": 8}
    smoke = {"rows": 20_000, "cols": 32, "blocks": 8}

    def args(self, outdir: str) -> List[str]:
        return [
            "--mrs-seed", str(self.seed), "--mrs-zero-copy", "on",
            "--tsqr-rows", str(self.size["rows"]),
            "--tsqr-cols", str(self.size["cols"]),
            "--tsqr-blocks", str(self.size["blocks"]),
        ]

    def prepare(self) -> None:
        self.serial_job_s, program = harness.timed(
            run_program, BenchDirectTSQR, self.args(""), impl="serial"
        )
        if not residuals_ok(program):
            raise RuntimeError("serial TSQR residuals exceed 1e-8")
        self.Q, self.R = program.Q, program.R

    def verify(self, program: Any, outdir: str) -> bool:
        # The dataflow is deterministic, so a correct run reproduces the
        # reference factors bit for bit, which also proves its residuals;
        # anything else must pass the residual check on its own.
        if np.array_equal(program.Q, self.Q) and np.array_equal(program.R, self.R):
            return True
        return residuals_ok(program)

    def replay(self, replay: Any) -> bool:
        program = self.last_program
        blocks, typed = self.size["blocks"], {"ks": "int", "vs": program.vs}
        matrix = replay.map_stage(
            [lambda i=i: [(i, program.block_rows(i))] for i in range(blocks)],
            program.gen_blocks, blocks, **typed,
        )
        stage1 = replay.map_stage(
            replay.column_pairs(matrix), program.qr_map, blocks, **typed
        )
        stage2 = replay.reduce_stage(
            stage1, program.stack_reduce, blocks, mapper=program.rekey_map, **typed
        )
        stage3 = replay.reduce_stage(stage2, program.join_reduce, blocks, **typed)
        out = {
            key: value for pairs in replay.pairs(stage3).values() for key, value in pairs
        }
        R = out.pop(R_KEY)
        return np.array_equal(program.assemble_q(out), self.Q) and np.array_equal(R, self.R)

    def probes(self, replay: Any, root: str, job_s: float) -> Dict[str, float]:
        return layers.array_view_throughput(self.last_program.make_block(0), root)
