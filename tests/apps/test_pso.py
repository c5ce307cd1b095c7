"""PSO components: functions, motion, topologies, MRPSO invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.pso.functions import (
    FUNCTIONS,
    Ackley,
    Griewank,
    Rastrigin,
    Rosenbrock,
    Sphere,
    get_function,
)
from repro.apps.pso.mrpso import ApiaryPSO, serial_apiary_pso
from repro.apps.pso.particle import (
    best_of,
    initialize_swarm,
    step_swarm,
    velocity_update,
)
from repro.apps.pso.topology import (
    apiary_outgoing,
    coverage,
    partition_swarm,
    ring_neighbors,
    star_neighbors,
)
from repro.core.random_streams import numpy_stream


class TestFunctions:
    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_optimum_is_zero(self, name):
        func = get_function(name, 5)
        optimum = np.ones(5) if name == "rosenbrock" else np.zeros(5)
        assert func(optimum) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_nonnegative_on_samples(self, name):
        func = get_function(name, 4)
        rng = numpy_stream(99)
        for _ in range(50):
            assert func(func.random_position(rng)) >= -1e-9

    def test_rosenbrock_known_value(self):
        func = Rosenbrock(2)
        # f(0,0) = 100*(0-0)^2 + (1-0)^2 = 1
        assert func(np.zeros(2)) == pytest.approx(1.0)

    def test_sphere_known_value(self):
        assert Sphere(3)(np.array([1.0, 2.0, 2.0])) == pytest.approx(9.0)

    def test_rastrigin_lattice_minima(self):
        func = Rastrigin(2)
        assert func(np.array([1.0, -1.0])) == pytest.approx(2.0, abs=1e-9)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            Sphere(3)(np.zeros(4))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_function("banana", 2)

    def test_in_bounds(self):
        func = Sphere(2)
        assert func.in_bounds(np.array([0.0, 99.0]))
        assert not func.in_bounds(np.array([0.0, 101.0]))

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            Sphere(0)


class TestParticle:
    def test_velocity_update_deterministic_per_stream(self):
        pos = np.zeros(3)
        vel = np.ones(3)
        pb = np.ones(3)
        nb = np.full(3, 2.0)
        v1 = velocity_update(vel, pos, pb, nb, numpy_stream(1))
        v2 = velocity_update(vel, pos, pb, nb, numpy_stream(1))
        assert np.array_equal(v1, v2)

    def test_velocity_update_magnitude_bounded(self):
        """With chi=0.72984 and both attractors at distance d, the new
        speed per coordinate is at most chi*(|v| + 4.1*d)."""
        pos, vel = np.zeros(2), np.full(2, 3.0)
        pb = nb = np.full(2, 5.0)
        v = velocity_update(vel, pos, pb, nb, numpy_stream(2))
        assert np.all(np.abs(v) <= 0.73 * (3.0 + 4.1 * 5.0) + 1e-9)

    def test_initialize_swarm_in_bounds(self):
        func = Sphere(6)
        positions, velocities, pbest_pos, pbest_val = initialize_swarm(
            func, 10, numpy_stream(3)
        )
        assert positions.shape == (10, 6)
        lo, hi = func.bounds
        assert (positions >= lo).all() and (positions <= hi).all()
        assert np.array_equal(positions, pbest_pos)
        for i in range(10):
            assert pbest_val[i] == func.evaluate(positions[i])

    def test_step_swarm_personal_best_monotone(self):
        func = Sphere(4)
        rng = numpy_stream(4)
        positions, velocities, pbest_pos, pbest_val = initialize_swarm(func, 6, rng)
        nbest_val, nbest_pos = best_of(pbest_val, pbest_pos)
        for _ in range(20):
            before = pbest_val.copy()
            step_swarm(func, positions, velocities, pbest_pos, pbest_val,
                       nbest_pos, rng)
            assert (pbest_val <= before + 1e-12).all()
            nbest_val, nbest_pos = best_of(pbest_val, pbest_pos)

    def test_step_swarm_counts_evaluations(self):
        func = Sphere(2)
        rng = numpy_stream(5)
        positions, velocities, pbest_pos, pbest_val = initialize_swarm(func, 5, rng)
        evals = step_swarm(func, positions, velocities, pbest_pos, pbest_val,
                           pbest_pos[0], rng)
        assert 0 <= evals <= 5

    def test_best_of(self):
        vals = np.array([3.0, 1.0, 2.0])
        pos = np.arange(6, dtype=float).reshape(3, 2)
        value, position = best_of(vals, pos)
        assert value == 1.0
        assert np.array_equal(position, pos[1])

    def test_empty_swarm_rejected(self):
        with pytest.raises(ValueError):
            initialize_swarm(Sphere(2), 0, numpy_stream(6))


class TestTopology:
    def test_ring_includes_self_and_neighbors(self):
        assert ring_neighbors(0, 5) == [4, 0, 1]
        assert ring_neighbors(2, 5) == [1, 2, 3]

    def test_ring_radius(self):
        assert ring_neighbors(0, 7, radius=2) == [5, 6, 0, 1, 2]

    def test_ring_small_swarm_dedupes(self):
        assert ring_neighbors(0, 1) == [0]
        assert set(ring_neighbors(0, 2)) == {0, 1}

    def test_star_is_everyone(self):
        assert star_neighbors(3, 5) == [0, 1, 2, 3, 4]

    def test_coverage(self):
        assert coverage(ring_neighbors, 9)
        assert coverage(star_neighbors, 9)

    def test_apiary_ring_direction(self):
        assert apiary_outgoing(0, 4) == [1]
        assert apiary_outgoing(3, 4) == [0]

    def test_apiary_single_hive_silent(self):
        assert apiary_outgoing(0, 1) == []

    def test_apiary_everyone_receives(self):
        received = set()
        for hive in range(6):
            received.update(apiary_outgoing(hive, 6))
        assert received == set(range(6))

    def test_partition_swarm(self):
        parts = partition_swarm(10, 3)
        assert parts == [(0, 4), (4, 3), (7, 3)]

    def test_partition_rejects_empty_hives(self):
        with pytest.raises(ValueError):
            partition_swarm(2, 3)

    def test_index_bounds_checked(self):
        with pytest.raises(IndexError):
            ring_neighbors(5, 5)
        with pytest.raises(IndexError):
            apiary_outgoing(4, 4)


class TestApiaryPSOInvariants:
    def run_small(self, **kw):
        params = dict(function="sphere", dims=6, n_subswarms=3,
                      particles_per=4, inner_iters=4, max_outer=8, seed=21)
        params.update(kw)
        return serial_apiary_pso(**params)

    def test_best_value_monotone_nonincreasing(self):
        prog = self.run_small()
        bests = [r.best for r in prog.convergence]
        assert all(b1 >= b2 for b1, b2 in zip(bests, bests[1:]))

    def test_evals_strictly_increasing(self):
        prog = self.run_small()
        evals = [r.evals for r in prog.convergence]
        assert all(e1 < e2 for e1, e2 in zip(evals, evals[1:]))

    def test_evals_bounded_by_schedule(self):
        prog = self.run_small()
        # init: subswarms*particles; per outer iter at most
        # subswarms*particles*inner more.
        upper = 3 * 4 + 8 * (3 * 4 * 4)
        assert prog.convergence[-1].evals <= upper

    def test_makes_progress_on_sphere(self):
        prog = self.run_small(max_outer=20)
        assert prog.convergence[-1].best < prog.convergence[0].best

    def test_target_stops_early(self):
        prog = self.run_small(max_outer=200, target=1e6)
        assert prog.best_value <= 1e6
        assert len(prog.convergence) < 200

    def test_best_position_matches_value(self):
        prog = self.run_small()
        func = get_function("sphere", 6)
        assert func(prog.best_position) == pytest.approx(prog.best_value)

    def test_single_hive_works(self):
        prog = self.run_small(n_subswarms=1)
        assert prog.convergence


@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=40))
def test_partition_swarm_property(particles, hives):
    if hives > particles:
        with pytest.raises(ValueError):
            partition_swarm(particles, hives)
        return
    parts = partition_swarm(particles, hives)
    assert sum(count for _, count in parts) == particles
    assert all(count >= 1 for _, count in parts)
    # contiguity
    position = 0
    for start, count in parts:
        assert start == position
        position += count


@given(st.integers(min_value=1, max_value=32))
@settings(max_examples=30)
def test_ring_coverage_property(size):
    assert coverage(ring_neighbors, size)


class TestApiaryStagnation:
    BASE = dict(function="sphere", dims=6, n_subswarms=3, particles_per=4,
                inner_iters=3, max_outer=15, seed=99)

    def run_with_stagnation(self, limit, **overrides):
        from repro.core.main import run_program
        from repro.apps.pso.mrpso import ApiaryPSO

        params = dict(self.BASE)
        params.update(overrides)
        flags = [
            "--mrs-seed", str(params["seed"]),
            "--pso-function", params["function"],
            "--pso-dims", str(params["dims"]),
            "--pso-subswarms", str(params["n_subswarms"]),
            "--pso-particles", str(params["particles_per"]),
            "--pso-inner", str(params["inner_iters"]),
            "--pso-outer", str(params["max_outer"]),
            "--pso-stagnation", str(limit),
        ]
        return run_program(ApiaryPSO, flags, impl="serial")

    def test_off_by_default_matches_legacy(self):
        with_zero = self.run_with_stagnation(0)
        baseline = serial_apiary_pso(**{
            "function": "sphere", "dims": 6, "n_subswarms": 3,
            "particles_per": 4, "inner_iters": 3, "max_outer": 15,
            "seed": 99,
        })
        assert [r.best for r in with_zero.convergence] == [
            r.best for r in baseline.convergence
        ]

    def test_reinit_triggers_and_costs_evaluations(self):
        """Aggressive stagnation actually reinitializes hives, and each
        reinit re-evaluates the hive's initial population."""
        never = self.run_with_stagnation(0, max_outer=25)
        eager = self.run_with_stagnation(1, max_outer=25)
        assert eager.reinit_count > 0
        assert never.reinit_count == 0
        # Trajectories diverge once a hive is reinitialized.
        assert [r.best for r in eager.convergence] != [
            r.best for r in never.convergence
        ]

    def test_global_best_still_monotone(self):
        prog = self.run_with_stagnation(2)
        bests = [r.best for r in prog.convergence]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bests, bests[1:]))

    def test_equivalence_preserved_with_stagnation(self):
        from repro.core.main import run_program
        from repro.apps.pso.mrpso import ApiaryPSO

        flags = [
            "--mrs-seed", "99", "--pso-function", "sphere",
            "--pso-dims", "6", "--pso-subswarms", "3",
            "--pso-particles", "4", "--pso-inner", "3",
            "--pso-outer", "10", "--pso-stagnation", "2",
        ]
        a = run_program(ApiaryPSO, flags, impl="serial")
        b = run_program(ApiaryPSO, flags, impl="bypass")
        c = run_program(ApiaryPSO, flags, impl="mockparallel")
        la = [(r.evals, r.best) for r in a.convergence]
        assert la == [(r.evals, r.best) for r in b.convergence]
        assert la == [(r.evals, r.best) for r in c.convergence]


def test_unfused_run_releases_its_reduce_datasets():
    """``--pso-no-fuse`` releases each reduce dataset a round after the
    map that read it: the run holds at most one dataset more than the
    fused run, and computes the same convergence log."""
    from repro.core.main import run_program

    flags = [
        "--mrs-seed", "7", "--pso-function", "rastrigin", "--pso-dims", "4",
        "--pso-subswarms", "4", "--pso-particles", "3", "--pso-inner", "2",
        "--pso-outer", "40",
    ]
    fused = run_program(ApiaryPSO, flags, impl="serial")
    unfused = run_program(ApiaryPSO, flags + ["--pso-no-fuse"], impl="serial")
    live = {
        name: (
            len(prog._job._datasets),
            len(prog._job.backend.observability.tracer),
        )
        for name, prog in (("fused", fused), ("unfused", unfused))
    }
    assert live["unfused"][0] <= live["fused"][0] + 1, live
    assert live["unfused"][1] <= 2 * live["fused"][1], live

    def log(prog):
        return [(r.iteration, r.evals, r.best) for r in prog.convergence]

    assert len(log(unfused)) == 40
    assert log(unfused) == log(fused)
