"""A1 — Ablations of the design choices DESIGN.md calls out.

1. **Combiner** (section V-A): WordCount with and without the local
   reduce — measures the shrinkage of intermediate records that would
   cross the network.
2. **Iteration affinity** (section IV-A): the scheduler's preference
   for re-running task *i* on the slave that ran it last iteration —
   measured as locality hit rate over a simulated iterative workload.
3. **ReduceMap fusion** (section IV-A): one barrier per PSO iteration
   instead of two — measured as operation count and wall time on a
   real 2-slave cluster.
4. **Heartbeat batching** (hadoopsim): stock one-task-per-heartbeat
   vs the multiple-assignment patch — quantifies why wave scheduling
   dominates short Hadoop jobs.
"""

import time

from repro.apps.pso.mrpso import ApiaryPSO
from repro.apps.wordcount import WordCount, WordCountCombined
from repro.core.dataset import LocalData, make_map_data
from repro.core.options import default_options
from repro.hadoopsim import HadoopCluster, HadoopJob
from repro.hadoopsim.costmodel import HadoopCostModel
from repro.runtime import taskrunner
from repro.runtime.cluster import run_on_cluster
from repro.runtime.scheduler import ScheduledDataset, Scheduler
from reporting import fmt_seconds, once, print_table


def map_output_records(program, lines, combiner_name):
    """Total records leaving one map task (post-combiner if any)."""
    source = LocalData([(i, line) for i, line in enumerate(lines)])
    dataset = make_map_data(
        source, "map", splits=4, combiner=combiner_name
    )
    buckets = taskrunner.execute_task(
        program, dataset, 0,
        source.buckets_for_split(0),
    )
    return sum(len(b) for b in buckets)


def test_combiner_ablation(benchmark, bench_corpus_subset):
    root, paths, _ = bench_corpus_subset
    lines = []
    for path in paths[:20]:
        lines.extend(open(path).read().splitlines())
    plain_prog = WordCount(default_options(), [])
    combined_prog = WordCountCombined(default_options(), [])

    without = once(benchmark, map_output_records, plain_prog, lines, None)
    with_combiner = map_output_records(combined_prog, lines, "combine")
    shrinkage = without / max(1, with_combiner)

    print_table(
        "A1.1: combiner ablation (WordCount, one map task over "
        f"{len(lines)} lines)",
        ["configuration", "records shuffled", "relative"],
        [
            ["no combiner", without, "1.0x"],
            ["reduce-as-combiner", with_combiner, f"1/{shrinkage:.1f}x"],
        ],
        notes=[
            "the combiner 'reduces the amount of data that must be sent "
            "over the network for the main sort' (section V-A)",
        ],
    )
    assert with_combiner < without
    assert shrinkage > 2.0  # Zipfian text repeats words heavily


def simulate_affinity(affinity: bool, iterations=30, tasks=8, slaves=4):
    """Iterative schedule; count task->same-slave placements."""
    scheduler = Scheduler(affinity=affinity)
    for slave in range(slaves):
        scheduler.add_slave(slave)
    scheduler.mark_input_complete("input")
    placements = {}
    sticky = 0
    total = 0
    for iteration in range(iterations):
        ds_id = f"iter{iteration}"
        scheduler.add_dataset(
            ScheduledDataset(ds_id, ntasks=tasks, affinity_group="iter",
                             input_id="input")
        )
        # Slaves become free in a scrambled order each iteration, as
        # they would in a real cluster.
        order = [(iteration * 7 + k) % slaves for k in range(slaves)]
        pending = tasks
        while pending:
            for slave in order:
                task = scheduler.next_task(slave)
                if task is None:
                    continue
                _, index = task
                previous = placements.get(index)
                if previous is not None:
                    total += 1
                    if previous == slave:
                        sticky += 1
                placements[index] = slave
                scheduler.task_done(slave, task)
                pending -= 1
    return sticky / total if total else 1.0


def test_affinity_ablation(benchmark):
    with_affinity = once(benchmark, simulate_affinity, True)
    without_affinity = simulate_affinity(False)
    print_table(
        "A1.2: iteration affinity ablation (8 tasks, 4 slaves, 30 "
        "iterations, scrambled slave availability)",
        ["scheduler", "same-slave placement rate"],
        [
            ["affinity on (Mrs default)", f"{with_affinity:.0%}"],
            ["affinity off", f"{without_affinity:.0%}"],
        ],
        notes=[
            "sticky placement 'reduces communication between nodes and "
            "latency between iterations' (section IV-A)",
        ],
    )
    assert with_affinity > 0.9
    assert with_affinity > without_affinity


PSO_BASE = [
    "--mrs-seed", "3", "--pso-function", "rosenbrock", "--pso-dims", "100",
    "--pso-subswarms", "4", "--pso-particles", "5", "--pso-inner", "5",
    "--pso-outer", "12",
]


def pso_log(program):
    return [(r.iteration, r.evals, r.best) for r in program.convergence]


def timed_cluster_pso(extra_flags):
    started = time.perf_counter()
    program = run_on_cluster(ApiaryPSO, PSO_BASE + extra_flags, n_slaves=2)
    return program, time.perf_counter() - started


def test_reducemap_fusion_ablation(benchmark):
    fused_prog, fused_s = once(benchmark, timed_cluster_pso, [])
    unfused_prog, unfused_s = timed_cluster_pso(["--pso-no-fuse"])
    # The whole log, not just the best value: fused and unfused PSO are
    # the same computation behind one or two barriers per iteration.
    assert pso_log(fused_prog) == pso_log(unfused_prog), (
        "fusion must not change results"
    )

    iterations = len(fused_prog.convergence)
    print_table(
        "A1.3: ReduceMap fusion ablation (PSO, 12 iterations, 2 slaves)",
        ["configuration", "barriers/iter", "total wall", "s/iteration"],
        [
            ["fused reducemap", 1, fmt_seconds(fused_s),
             fmt_seconds(fused_s / iterations)],
            ["separate reduce+map", 2, fmt_seconds(unfused_s),
             fmt_seconds(unfused_s / iterations)],
        ],
        notes=["identical trajectories; fusion halves the per-iteration "
               "barrier count (section IV-A)"],
    )
    # Wall-time on localhost is noisy; the hard guarantees are result
    # equality (asserted above) and barrier count (by construction).


def test_heartbeat_batching_ablation(benchmark):
    classic = HadoopCostModel(tasks_per_heartbeat=1)
    batched = HadoopCostModel()  # default: 4

    def run(model):
        cluster = HadoopCluster(model=model)
        return HadoopJob(cluster).run_modeled(
            map_seconds=0.1, n_map_tasks=126, reduce_seconds=0.1,
            n_reduce_tasks=4,
        ).modeled_seconds

    batched_s = once(benchmark, run, batched)
    classic_s = run(classic)
    print_table(
        "A1.4: JobTracker assignment batching (126 trivial maps, 21 nodes)",
        ["assignment policy", "modeled job time"],
        [
            ["1 task/heartbeat (stock 0.20)", fmt_seconds(classic_s)],
            ["4 tasks/heartbeat (MAPREDUCE-318)", fmt_seconds(batched_s)],
        ],
        notes=["either way the job floor stays ~30s+ — the overhead the "
               "paper's iterative argument rests on"],
    )
    assert classic_s > batched_s
    assert batched_s >= 28.0


def test_apiary_stagnation_ablation(benchmark):
    """A1.5 — the Apiary swarming/reinit mechanic on a multimodal
    landscape (Rastrigin): stagnating hives are reinitialized after
    their best has been shared around the ring."""
    base = [
        "--mrs-seed", "21", "--pso-function", "rastrigin",
        "--pso-dims", "12", "--pso-subswarms", "4",
        "--pso-particles", "8", "--pso-inner", "5", "--pso-outer", "40",
    ]

    def run(stagnation):
        from repro.core.main import run_program

        prog = run_program(
            ApiaryPSO, base + ["--pso-stagnation", str(stagnation)],
            impl="serial",
        )
        return prog

    off = once(benchmark, run, 0)
    on = run(5)
    print_table(
        "A1.5: Apiary stagnation/reinit ablation (Rastrigin-12, 40 rounds)",
        ["configuration", "final best", "evaluations", "hive reinits"],
        [
            ["stagnation off", f"{off.best_value:.4g}",
             off.convergence[-1].evals, off.reinit_count],
            ["stagnation limit 5", f"{on.best_value:.4g}",
             on.convergence[-1].evals, on.reinit_count],
        ],
        notes=["reinit restores diversity on multimodal landscapes; the "
               "hive's best is shared before the reset so knowledge is "
               "kept"],
    )
    assert off.reinit_count == 0
    assert on.reinit_count >= 0  # landscape-dependent; both runs valid
    assert on.best_value <= on.convergence[0].best


def test_fault_tolerance_cost(benchmark):
    """A1.6 — price of a mid-job slave death on the file data plane:
    the job completes with the identical answer, paying only the
    watchdog-detection and re-execution time."""
    from repro.apps.pi.estimator import PiEstimator
    from repro.core.main import run_program
    from repro.runtime.cluster import LocalCluster

    flags = ["--pi-samples", "600000", "--pi-tasks", "9"]
    serial = run_program(PiEstimator, flags, impl="serial")

    def clean_run():
        started = time.perf_counter()
        with LocalCluster(PiEstimator, flags, n_slaves=3) as cluster:
            program = cluster.run()
        return program, time.perf_counter() - started

    program_clean, clean_s = once(benchmark, clean_run)

    started = time.perf_counter()
    cluster = LocalCluster(PiEstimator, flags, n_slaves=3)
    cluster.start()
    try:
        cluster.kill_slave(0)
        program_chaos = cluster.run()
    finally:
        cluster.stop()
    chaos_s = time.perf_counter() - started

    assert program_clean.pi_estimate == serial.pi_estimate
    assert program_chaos.pi_estimate == serial.pi_estimate
    print_table(
        "A1.6: slave death mid-job (file data plane, 3 slaves -> 2)",
        ["scenario", "wall time", "answer"],
        [
            ["no failures", fmt_seconds(clean_s), "correct"],
            ["1 slave killed", fmt_seconds(chaos_s),
             "correct (identical to serial)"],
        ],
        notes=["shared-filesystem intermediate data survives the death "
               "(section IV-B); the surcharge is watchdog detection "
               "(~2 s ping period) plus redoing the lost in-flight task"],
    )


def test_task_granularity_ablation(benchmark):
    """A1.7 — the paper's motivation for Apiary, measured: "For
    computationally trivial objective functions, task granularity can
    be too fine if each map task operates on a single particle."
    Same 20 particles, same total PSO steps, two decompositions."""
    from repro.apps.pso.mrpso_single import SingleParticlePSO
    from repro.core.main import run_program

    def run_fine():
        started = time.perf_counter()
        prog = run_on_cluster(
            SingleParticlePSO,
            ["--mrs-seed", "8", "--sp-function", "sphere", "--sp-dims", "10",
             "--sp-particles", "20", "--sp-iters", "10"],
            n_slaves=2,
        )
        return prog, time.perf_counter() - started

    fine_prog, fine_s = once(benchmark, run_fine)

    started = time.perf_counter()
    coarse_prog = run_on_cluster(
        ApiaryPSO,
        ["--mrs-seed", "8", "--pso-function", "sphere", "--pso-dims", "10",
         "--pso-subswarms", "4", "--pso-particles", "5",
         "--pso-inner", "10", "--pso-outer", "1"],
        n_slaves=2,
    )
    coarse_s = time.perf_counter() - started

    # Same total motion steps: fine = 20 particles x 10 iterations;
    # coarse = 4 hives x 5 particles x 10 inner iterations.
    fine_tasks = 20 * 10
    coarse_tasks = 4 * 1
    print_table(
        "A1.7: task granularity (200 particle-steps, 2 slaves)",
        ["decomposition", "map tasks", "barriers", "wall time"],
        [
            ["per-particle (MRPSO [5])", fine_tasks, 10, fmt_seconds(fine_s)],
            ["Apiary subswarms [12]", coarse_tasks, 1, fmt_seconds(coarse_s)],
        ],
        notes=[
            "identical per-step math; the per-particle formulation pays "
            f"{fine_tasks // coarse_tasks}x the task dispatches and 10x "
            "the barriers for the same arithmetic",
        ],
    )
    assert coarse_s < fine_s, (
        "coarse granularity must beat per-particle tasks on a trivial "
        "objective"
    )
