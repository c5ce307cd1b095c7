"""Descriptor execution: the one routine every slave runs.

A slave, exec'd or forked, receives a task descriptor
(:func:`repro.comm.protocol.make_task_descriptor`) and owes its master
an answer: where the output buckets are, how long the task took, and a
per-task metrics payload to piggyback on the ``done`` RPC.
:func:`execute_descriptor` is that whole descriptor -> buckets ->
metrics path.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.comm import protocol, transfer
from repro.core.operations import Operation
from repro.io.bucket import FileBucket
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import TaskSpan
from repro.runtime import taskrunner


def execute_descriptor(
    program: Any,
    descriptor: Dict[str, Any],
    label: str,
    localdir: Optional[str] = None,
    url_for: Optional[Callable[[str], str]] = None,
    profiler: Any = None,
    sampler: Any = None,
    boot_seconds: Optional[float] = None,
) -> Tuple[List[Tuple[int, str, bool, float, float]], float, Dict[str, Any]]:
    """Execute one task descriptor in this process.

    Returns ``(bucket_urls, seconds, metrics)`` exactly as the
    completion report needs them; raises on any task error (the caller
    turns that into a ``failed`` report).

    ``label`` (``"slave"``) prefixes the per-task registry's names.  A
    descriptor without an ``outdir`` keeps its output under
    ``localdir`` and publishes it through ``url_for`` (the http data
    plane).  ``sampler`` is the process's telemetry health
    sampler (``None`` only in tests); ``boot_seconds`` is shipped once,
    with the process's first task.
    """
    dataset_id = descriptor["dataset_id"]
    task_index = int(descriptor["task_index"])
    started = time.perf_counter()
    fetch_before = transfer.STATS.totals()
    # A fresh span per execution, shipped whole on the completion
    # report: input fetch ends at the "fetch" mark, compute at
    # "map"/"reduce", output writing at "serialize", URL publication at
    # "transfer".
    span = TaskSpan(dataset_id, task_index)
    span.mark("started", started)
    op = Operation.from_dict(descriptor["op"])
    # Reduce-kind tasks merge their inputs, and the merge streams
    # straight from the bucket files — so those inputs stay URL-only
    # (the read cost lands in "reduce" instead of "fetch").  Map
    # inputs are iterated as plain pairs and are fetched here.
    input_buckets = taskrunner.buckets_from_urls(
        descriptor["input_urls"],
        split=task_index,
        key_serializer=descriptor.get("input_key_serializer"),
        value_serializer=descriptor.get("input_value_serializer"),
        streaming=op.kind in ("reduce", "reducemap"),
        sorted_flags=descriptor.get("input_sorted"),
    )
    span.mark("fetch")
    shared_outdir = descriptor.get("outdir")
    factory = taskrunner.file_bucket_factory(
        shared_outdir or os.path.join(localdir, dataset_id),
        dataset_id,
        task_index,
        ext=descriptor["format_ext"],
        sidecar=bool(descriptor.get("user_output")),
        key_serializer=descriptor.get("key_serializer"),
        value_serializer=descriptor.get("value_serializer"),
    )
    if profiler is None:
        out_buckets = taskrunner.run_operation(
            program, op, input_buckets, factory, span=span
        )
    else:
        out_buckets = profiler.run(
            taskrunner.run_operation,
            program,
            op,
            input_buckets,
            factory,
            span=span,
            profile_dataset_id=dataset_id,
            profile_task_index=task_index,
            profile_span=span,
        )
    urls: List[Tuple[int, str, bool, float, float]] = []
    for bucket in out_buckets:
        assert isinstance(bucket, FileBucket)
        if shared_outdir is None and url_for is not None:
            url = url_for(bucket.path)
        else:
            url = "file:" + bucket.path
        # The sortedness flag lets the consuming reduce task stream
        # this file through its merge without re-sorting; the file's
        # records and bytes are what the coordinator's skew view sums.
        urls.append(
            (
                bucket.split,
                url,
                bucket.url_sorted,
                float(len(bucket)),
                float(os.path.getsize(bucket.path)),
            )
        )
    span.mark("transfer")
    seconds = time.perf_counter() - started
    # Deliberately a *per-task* registry snapshot rather than the
    # process's cumulative state: the coordinator merges every payload
    # it receives, and merging cumulative counters repeatedly would
    # double-count.
    registry = MetricsRegistry()
    registry.counter(f"{label}.tasks.completed").inc()
    registry.histogram(f"{label}.task.seconds").observe(seconds)
    if boot_seconds is not None:
        # The executing process's boot-to-first-task latency, the
        # role-appropriate startup number for a slave.
        registry.gauge(f"{label}.boot_to_first_task.seconds").set(boot_seconds)
    # What the transfer plane moved *for this task* (delta against the
    # process-wide stats, same no-double-count discipline as above).
    for name, amount in transfer.STATS.delta(fetch_before).items():
        registry.counter(name).inc(amount)
    metrics = protocol.make_task_metrics(
        span=span.to_wire(),
        registry=registry.snapshot(),
        health=sampler.maybe_sample() if sampler is not None else None,
    )
    return urls, seconds, metrics
