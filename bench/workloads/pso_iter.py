"""``pso_iter``: many tiny tasks and one barrier per iteration.

Apiary PSO on a cheap objective: the whole computation is a fraction of
a second serial, so wall time is scheduler + XML-RPC + per-task set-up.
This is the workload for resident-state BSP, batched dispatch and task
fusion; the data-plane layers do almost nothing here.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from bench import harness, layers
from bench.workloads.base import BatchWorkload

from repro.apps.pso.mrpso import STATE_TAG, ApiaryPSO
from repro.core.main import run_program

SUBSWARMS = 4


def convergence_log(program: ApiaryPSO) -> List[Tuple[int, int, float]]:
    """The convergence log minus its wall-clock column."""
    return [(r.iteration, r.evals, r.best) for r in program.convergence]


class PsoIter(BatchWorkload):
    name = "pso_iter"
    program_class = ApiaryPSO
    backend = "file"
    full = {"outer": 150}
    smoke = {"outer": 15}

    def args(self, outdir: str) -> List[str]:
        return [
            "--mrs-seed", str(self.seed), "--pso-function", "sphere",
            "--pso-dims", "8", "--pso-subswarms", str(SUBSWARMS),
            "--pso-particles", "4", "--pso-inner", "2",
            "--pso-outer", str(self.size["outer"]),
        ]

    def prepare(self) -> None:
        self.serial_job_s, program = harness.timed(
            run_program, ApiaryPSO, self.args(""), impl="serial"
        )
        self.reference = convergence_log(program)
        if len(self.reference) != self.size["outer"]:
            raise RuntimeError("serial PSO did not run every iteration")

    def verify(self, program: Any, outdir: str) -> bool:
        # Bit for bit: floats compare with ==.
        return convergence_log(program) == self.reference

    #: Wall time here is waiting, not work: the data plane's share is
    #: taken of the parallel job (iter_ms x iterations).
    share_of = "parallel"

    def replay(self, replay: Any) -> bool:
        program = self.last_program
        outer, parter = self.size["outer"], program.mod_partition
        grid = replay.map_stage(
            [lambda state=state: [state] for state in program.initial_states()],
            program.map, SUBSWARMS, parter=parter,
        )
        for _ in range(outer - 1):
            grid = replay.reduce_stage(
                grid, program.reduce, SUBSWARMS, parter=parter, mapper=program.map
            )
        states = [
            payload for pairs in replay.pairs(grid).values()
            for _, (tag, payload) in pairs if tag == STATE_TAG
        ]
        # Personal bests only ever improve, so the last iteration's best
        # is the best of the whole run: the log's final entry.
        return (
            len(states) == SUBSWARMS
            and all(state.outer_iter == outer for state in states)
            and min(state.best_val for state in states) == self.reference[-1][2]
        )

    def probes(self, replay: Any, root: str, job_s: float) -> Dict[str, float]:
        bypass_s, program = harness.timed(
            run_program, ApiaryPSO, self.args(""), impl="bypass"
        )
        self.count(convergence_log(program) == self.reference)
        out = {
            "runtime.bypass.compute_s": bypass_s,
            "bench.iter_ms": 1000.0 * job_s / self.size["outer"],
        }
        out.update(layers.serializer_costs(replay.sample, None, None))
        return out
