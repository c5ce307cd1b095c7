"""Apiary PSO as an iterative MapReduce program (Fig 4).

One *outer iteration* is one ReduceMap cycle:

* **map**\\ (hive_id, state): advance the hive through ``inner_iters``
  constriction-PSO steps (star neighborhood inside the hive), then
  emit the updated state to itself and a ``best`` message to the next
  hive around the Apiary ring.
* **reduce**\\ (hive_id, values): merge the hive's state with incoming
  ``best`` messages (the new neighborhood best), yielding the state
  the fused map then advances.

The driver (:class:`ApiaryPSO`, an :class:`~repro.core.IterativeMR`)
keeps two iterations in flight, so the master's convergence check runs
*in parallel* with the computation of subsequent iterations — the
paper's key iterative optimization.  The ``bypass`` implementation
replays the identical dataflow serially by calling the very same map
and reduce methods, so every implementation is bit-identical (the
paper's cross-implementation debugging methodology).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro as mrs
from repro.apps.pso.functions import Benchmark, get_function
from repro.apps.pso.particle import best_of, initialize_swarm, step_swarm
from repro.apps.pso.topology import apiary_outgoing

#: Stream-namespace tags so initialization and motion never share a
#: pseudorandom stream (see core.random_streams).
INIT_STREAM = 0
MOVE_STREAM = 1

STATE_TAG = "state"
BEST_TAG = "best"


class SubswarmState:
    """The full state of one hive, shipped between map and reduce."""

    __slots__ = (
        "hive",
        "outer_iter",
        "positions",
        "velocities",
        "pbest_pos",
        "pbest_val",
        "nbest_val",
        "nbest_pos",
        "evals",
        "compute_seconds",
        "last_best",
        "stale_rounds",
    )

    def __init__(
        self,
        hive: int,
        positions: np.ndarray,
        velocities: np.ndarray,
        pbest_pos: np.ndarray,
        pbest_val: np.ndarray,
    ):
        self.hive = hive
        self.outer_iter = 0
        self.positions = positions
        self.velocities = velocities
        self.pbest_pos = pbest_pos
        self.pbest_val = pbest_val
        value, position = best_of(pbest_val, pbest_pos)
        #: Best attractor known to the hive (own best or neighbor msg).
        self.nbest_val = value
        self.nbest_pos = position
        #: Cumulative objective evaluations in this hive.
        self.evals = int(pbest_val.size)
        #: Cumulative map-side compute time (for overhead accounting).
        self.compute_seconds = 0.0
        #: Stagnation tracking for the Apiary swarming/reinit mechanic.
        self.last_best = value
        self.stale_rounds = 0

    def copy(self) -> "SubswarmState":
        """Deep-enough copy: map tasks must never mutate their input
        (in the serial runtime, input and output datasets share
        objects; an in-place update would corrupt the previous
        iteration's dataset and break cross-implementation
        equivalence)."""
        fresh = SubswarmState.__new__(SubswarmState)
        fresh.hive = self.hive
        fresh.outer_iter = self.outer_iter
        fresh.positions = self.positions.copy()
        fresh.velocities = self.velocities.copy()
        fresh.pbest_pos = self.pbest_pos.copy()
        fresh.pbest_val = self.pbest_val.copy()
        fresh.nbest_val = self.nbest_val
        fresh.nbest_pos = self.nbest_pos.copy()
        fresh.evals = self.evals
        fresh.compute_seconds = self.compute_seconds
        fresh.last_best = self.last_best
        fresh.stale_rounds = self.stale_rounds
        return fresh

    @property
    def best_val(self) -> float:
        """Best personal-best value inside the hive."""
        return float(self.pbest_val.min())

    def offer_nbest(self, value: float, position: np.ndarray) -> None:
        if value < self.nbest_val:
            self.nbest_val = float(value)
            self.nbest_pos = np.array(position, dtype=np.float64)

    def __repr__(self) -> str:
        return (
            f"SubswarmState(hive={self.hive}, iter={self.outer_iter}, "
            f"best={self.best_val:.4g}, evals={self.evals})"
        )


class ConvergenceRecord(Tuple[int, int, float, float]):
    """(outer_iteration, total_evals, elapsed_seconds, best_value)."""

    __slots__ = ()

    def __new__(cls, iteration: int, evals: int, elapsed: float, best: float):
        return super().__new__(cls, (iteration, evals, elapsed, best))

    iteration = property(lambda self: self[0])
    evals = property(lambda self: self[1])
    elapsed = property(lambda self: self[2])
    best = property(lambda self: self[3])


class ApiaryPSO(mrs.IterativeMR):
    """Particle Swarm Optimization with the Apiary subswarm topology."""

    iterative_qmax = 2

    def __init__(self, opts, args):
        super().__init__(opts, args)
        self.function: Benchmark = get_function(
            getattr(opts, "pso_function", "rosenbrock"),
            getattr(opts, "pso_dims", 250),
        )
        self.n_subswarms = getattr(opts, "pso_subswarms", 4)
        self.particles_per = getattr(opts, "pso_particles", 5)
        self.inner_iters = getattr(opts, "pso_inner", 10)
        self.max_outer = getattr(opts, "pso_outer", 50)
        self.target = getattr(opts, "pso_target", None)
        self.stagnation_limit = getattr(opts, "pso_stagnation", 0)
        self.fuse_reducemap = not getattr(opts, "pso_no_fuse", False)
        self.iterative_qmax = max(1, getattr(opts, "pso_qmax", 2))
        #: Convergence log, one record per completed outer iteration.
        self.convergence: List[ConvergenceRecord] = []
        self.best_value = float("inf")
        self.best_position: Optional[np.ndarray] = None
        self._iterations_queued = 0
        self._last_dataset = None
        self._consumed: List[Any] = []
        #: Unfused runs: map dataset id -> the reduce dataset it read.
        self._reduced: Dict[str, Any] = {}
        self._job: Optional[mrs.Job] = None
        self._started_at: Optional[float] = None
        #: Hive reinitializations performed (meaningful in in-process
        #: runs; slaves count their own copies).
        self.reinit_count = 0

    @classmethod
    def update_parser(cls, parser):
        parser.add_argument(
            "--pso-function", dest="pso_function", default="rosenbrock",
            help="benchmark function name",
        )
        parser.add_argument(
            "--pso-dims", dest="pso_dims", type=int, default=250,
            help="problem dimensionality (paper: Rosenbrock-250)",
        )
        parser.add_argument(
            "--pso-subswarms", dest="pso_subswarms", type=int, default=4,
            help="number of Apiary hives (one map task each)",
        )
        parser.add_argument(
            "--pso-particles", dest="pso_particles", type=int, default=5,
            help="particles per hive",
        )
        parser.add_argument(
            "--pso-inner", dest="pso_inner", type=int, default=10,
            help="inner PSO iterations per map task",
        )
        parser.add_argument(
            "--pso-outer", dest="pso_outer", type=int, default=50,
            help="maximum outer (MapReduce) iterations",
        )
        parser.add_argument(
            "--pso-target", dest="pso_target", type=float, default=None,
            help="stop once the global best reaches this value",
        )
        parser.add_argument(
            "--pso-stagnation", dest="pso_stagnation", type=int, default=0,
            help="Apiary swarming: reinitialize a hive whose own best "
            "has not improved for this many outer iterations "
            "(0 = off).  The hive's best message still propagates "
            "around the ring before the reset, so knowledge is kept "
            "while diversity is restored",
        )
        parser.add_argument(
            "--pso-no-fuse", dest="pso_no_fuse", action="store_true",
            help="ablation: separate reduce and map operations per "
            "iteration instead of the fused ReduceMap (two barriers "
            "instead of one)",
        )
        parser.add_argument(
            "--pso-qmax", dest="pso_qmax", type=int, default=2,
            help="ablation: iterations kept in flight (1 disables the "
            "producer/consumer pipelining of section IV-A)",
        )
        return parser

    # -- state construction ------------------------------------------------

    def initial_states(self) -> List[Tuple[int, SubswarmState]]:
        states = []
        for hive in range(self.n_subswarms):
            rng = self.numpy_random(INIT_STREAM, hive)
            positions, velocities, pbest_pos, pbest_val = initialize_swarm(
                self.function, self.particles_per, rng
            )
            states.append(
                (hive, SubswarmState(hive, positions, velocities, pbest_pos, pbest_val))
            )
        return states

    # -- MapReduce functions --------------------------------------------------

    def mod_partition(self, key: Any, n_splits: int) -> int:
        """Keep hive *i* in split *i* so iteration affinity lines up."""
        return int(key) % n_splits

    def map(self, key: int, value: SubswarmState) -> Iterator[Tuple[int, Tuple[str, Any]]]:
        state = value.copy()
        started = time.perf_counter()
        rng = self.numpy_random(MOVE_STREAM, state.hive, state.outer_iter)
        for _ in range(self.inner_iters):
            state.evals += step_swarm(
                self.function,
                state.positions,
                state.velocities,
                state.pbest_pos,
                state.pbest_val,
                state.nbest_pos,
                rng,
            )
            # Star neighborhood inside the hive: refresh the attractor
            # after every step.
            state.offer_nbest(*best_of(state.pbest_val, state.pbest_pos))
        state.outer_iter += 1
        # Apiary swarming: a hive that stopped improving is
        # reinitialized after its best has been shared, trading the
        # stale population for fresh diversity.
        hive_best = state.best_val
        if hive_best < state.last_best:
            state.last_best = hive_best
            state.stale_rounds = 0
        else:
            state.stale_rounds += 1
        outgoing_best = (state.nbest_val, state.nbest_pos)
        if (
            self.stagnation_limit
            and state.stale_rounds >= self.stagnation_limit
        ):
            rng = self.numpy_random(
                INIT_STREAM, state.hive, state.outer_iter
            )
            positions, velocities, pbest_pos, pbest_val = initialize_swarm(
                self.function, state.pbest_val.size, rng
            )
            state.positions = positions
            state.velocities = velocities
            state.pbest_pos = pbest_pos
            state.pbest_val = pbest_val
            state.evals += int(pbest_val.size)
            state.last_best = state.best_val
            state.stale_rounds = 0
            self.reinit_count += 1
            # Keep the incoming attractor knowledge.
            state.offer_nbest(*best_of(pbest_val, pbest_pos))
        state.compute_seconds += time.perf_counter() - started
        yield (state.hive, (STATE_TAG, state))
        for target in apiary_outgoing(state.hive, self.n_subswarms):
            yield (target, (BEST_TAG, outgoing_best))

    def reduce(
        self, key: int, values: Iterator[Tuple[str, Any]]
    ) -> Iterator[SubswarmState]:
        state: Optional[SubswarmState] = None
        messages: List[Tuple[float, np.ndarray]] = []
        for tag, payload in values:
            if tag == STATE_TAG:
                state = payload
            elif tag == BEST_TAG:
                messages.append(payload)
            else:
                raise ValueError(f"unknown PSO record tag {tag!r}")
        if state is None:
            raise ValueError(f"no state record for hive {key}")
        state = state.copy()  # never mutate reduce input (see map)
        for value, position in messages:
            state.offer_nbest(value, position)
        yield state

    # -- iterative driver ---------------------------------------------------------

    def producer(self, job: mrs.Job) -> List[Any]:
        self._job = job
        if self._started_at is None:
            self._started_at = time.perf_counter()
        if self._iterations_queued >= self.max_outer:
            return []
        if self._last_dataset is None:
            source = job.local_data(
                self.initial_states(),
                splits=self.n_subswarms,
                parter=lambda key, n: int(key) % n,
                affinity_group="pso_states",
            )
            dataset = job.map_data(
                source,
                self.map,
                splits=self.n_subswarms,
                parter=self.mod_partition,
                affinity_group="pso_iter",
            )
        elif self.fuse_reducemap:
            dataset = job.reducemap_data(
                self._last_dataset,
                self.reduce,
                self.map,
                splits=self.n_subswarms,
                parter=self.mod_partition,
                affinity_group="pso_iter",
            )
        else:
            # Ablation: the classic two-barrier iteration shape.
            reduced = job.reduce_data(
                self._last_dataset,
                self.reduce,
                splits=self.n_subswarms,
                parter=self.mod_partition,
                affinity_group="pso_reduce",
            )
            dataset = job.map_data(
                reduced,
                self.map,
                splits=self.n_subswarms,
                parter=self.mod_partition,
                affinity_group="pso_iter",
            )
            self._reduced[dataset.id] = reduced
        self._last_dataset = dataset
        self._iterations_queued += 1
        return [dataset]

    def consumer(self, dataset: Any) -> bool:
        states = [
            payload
            for _, (tag, payload) in dataset.data()
            if tag == STATE_TAG
        ]
        iteration = max(state.outer_iter for state in states)
        total_evals = sum(state.evals for state in states)
        for state in states:
            if state.best_val < self.best_value:
                value, position = best_of(state.pbest_val, state.pbest_pos)
                self.best_value = value
                self.best_position = position
        elapsed = time.perf_counter() - (self._started_at or time.perf_counter())
        self.convergence.append(
            ConvergenceRecord(iteration, total_evals, elapsed, self.best_value)
        )
        # Release datasets no in-flight operation can still read: the
        # newest queued operation consumes self._last_dataset, so
        # anything consumed at least two rounds ago is garbage.
        self._consumed.append(dataset)
        # An unfused run's reduce dataset goes once the map after the
        # one that read it is consumed: one more live dataset than fused.
        if len(self._consumed) > 1:
            reduced = self._reduced.pop(self._consumed[-2].id, None)
            if reduced is not None and self._job is not None:
                self._job.remove_data(reduced)
        while len(self._consumed) > 2:
            old = self._consumed.pop(0)
            if self._job is not None and old is not self._last_dataset:
                self._job.remove_data(old)
        if self.target is not None and self.best_value <= self.target:
            return False
        return iteration < self.max_outer

    # -- serial implementation (bypass) ----------------------------------------

    def bypass(self) -> int:
        """Run the identical dataflow serially through map/reduce."""
        self._started_at = time.perf_counter()
        keyed_states: Dict[int, SubswarmState] = dict(self.initial_states())
        for outer in range(self.max_outer):
            emissions: Dict[int, List[Tuple[str, Any]]] = {
                hive: [] for hive in keyed_states
            }
            for hive in sorted(keyed_states):
                for key, record in self.map(hive, keyed_states[hive]):
                    emissions[key].append(record)
            new_states: Dict[int, SubswarmState] = {}
            for hive in sorted(emissions):
                # Match the framework's reduce-input ordering: records
                # sorted by canonical key encoding, stable within key.
                (state,) = self.reduce(hive, iter(emissions[hive]))
                new_states[hive] = state
            keyed_states = new_states
            states = list(keyed_states.values())
            for state in states:
                if state.best_val < self.best_value:
                    value, position = best_of(state.pbest_val, state.pbest_pos)
                    self.best_value = value
                    self.best_position = position
            self.convergence.append(
                ConvergenceRecord(
                    outer + 1,
                    sum(s.evals for s in states),
                    time.perf_counter() - self._started_at,
                    self.best_value,
                )
            )
            if self.target is not None and self.best_value <= self.target:
                break
        return 0


def serial_apiary_pso(
    function: str = "rosenbrock",
    dims: int = 250,
    n_subswarms: int = 4,
    particles_per: int = 5,
    inner_iters: int = 10,
    max_outer: int = 50,
    target: Optional[float] = None,
    seed: int = 42,
) -> ApiaryPSO:
    """Run the bypass (serial) implementation programmatically."""
    from repro.core.main import run_program

    return run_program(
        ApiaryPSO,
        [],
        impl="bypass",
        seed=seed,
        pso_function=function,
        pso_dims=dims,
        pso_subswarms=n_subswarms,
        pso_particles=particles_per,
        pso_inner=inner_iters,
        pso_outer=max_outer,
        pso_target=target,
    )


if __name__ == "__main__":
    mrs.exit_main(ApiaryPSO)
