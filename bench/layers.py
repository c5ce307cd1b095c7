"""Layer probes: each module measured from outside, through its public
functions, on the workload's own generated inputs.

Two kinds of probe live here.

:class:`Replay` walks a workload's dataflow once in the driver — read
input, map, emit + partition, sort/combine, spill write, serve + fetch,
merge, reduce, output write — with a span around every call into a
layer.  Stages materialise their results between spans (a running job
streams them), so a span's time is that layer's alone; the sum stays
close to the serial job (``bench.trace_coverage`` says how close).

The free functions time one thing each: an RPC round-trip, a scheduler
dispatch, a native kernel, a serializer.  Nothing here patches or
reaches into ``src/``; spans inside the program are a later change.
"""

from __future__ import annotations

import http.client
import io
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from bench import harness
from bench.trace import Tracer

from repro.comm.dataserver import DataServer
from repro.comm.rpc import RpcServer, rpc_client
from repro.core.operations import MapOperation, ReduceOperation
from repro.io import urls as url_io
from repro.io.bucket import (
    Bucket,
    FileBucket,
    group_sorted_records,
    merge_sorted_records,
)
from repro.io.formats import BinReader, BinWriter, TextWriter, default_read_pairs
from repro.io.partition import hash_partition_splits
from repro.io.serializers import dumps_parts_for, get_serializer, loads_view_for
from repro.native import kernels
from repro.runtime.scheduler import ScheduledDataset, Scheduler
from repro.runtime.taskrunner import (
    buckets_from_urls,
    file_bucket_factory,
    make_hash_emitter,
    run_map_task,
    run_reduce_task,
)
from repro.util.hashing import key_to_bytes

KeyValue = Tuple[Any, Any]
Partitioner = Callable[[Any, int], int]
#: Records kept from the first map task for the micro-probes.
SAMPLE_RECORDS = 50_000
MB = 1e6


class Grid:
    """A replayed dataset: spilled buckets addressed ``[source][split]``."""

    def __init__(self, splits: int, ks: Optional[str], vs: Optional[str]):
        self.splits = splits
        self.ks = ks
        self.vs = vs
        self.buckets: List[List[FileBucket]] = []


class Replay:
    """One workload's dataflow, stage by stage, under a tracer."""

    def __init__(self, tracer: Tracer, root: str, http: bool = False):
        self.tracer = tracer
        self.root = root
        self.server = DataServer(root) if http else None
        self.read_span = "comm.transfer.fetch" if http else "io.formats.read"
        self.stage = 0
        #: Emitted pairs of the first map task: the micro-probes' input.
        self.sample: List[KeyValue] = []

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()

    # -- the steps of a task, one span each -----------------------------------

    def read_files(self, paths: Sequence[str]) -> List[KeyValue]:
        """Input files through the format layer (text lines)."""
        with self.tracer.span("io.formats.read") as span:
            pairs = [pair for path in paths for pair in default_read_pairs(path)]
            span["bytes"] = sum(os.path.getsize(p) for p in paths)
            span["records"] = len(pairs)
        return pairs

    def read_column(self, grid: Grid, task: int) -> List[List[Tuple[bytes, KeyValue]]]:
        """Every source's bucket for ``task``, as key-sorted record
        lists: read from the spill (or fetched from the loopback
        ``DataServer``), then sorted if the spill was not."""
        lists = []
        for row in grid.buckets:
            spill = row[task]
            url = self.server.url_for(spill.path) if self.server else spill.url
            with self.tracer.span(self.read_span) as span:
                records = list(url_io.iter_records(url, grid.ks, grid.vs))
                span["bytes"] = os.path.getsize(spill.path)
                span["records"] = len(records)
            if not spill.url_sorted:
                bucket = Bucket()
                bucket.extend_records(records)
                with self.tracer.span("io.bucket.sort", records=len(records)):
                    bucket.sort()
                records = list(bucket.records())
            lists.append(records)
        return lists

    def user_map(self, mapper: Callable, pairs: Iterable[KeyValue]) -> List[KeyValue]:
        with self.tracer.span("user.map") as span:
            emitted = [kv for key, value in pairs for kv in (mapper(key, value) or ())]
            span["records"] = len(emitted)
        if not self.sample:
            self.sample = emitted[:SAMPLE_RECORDS]
        return emitted

    def emit(self, emitted: List[KeyValue], splits: int,
             parter: Optional[Partitioner]) -> List[Bucket]:
        """Encode each key once and place the pair: the default hash
        goes through the task runner's batch emitter, a program's own
        partitioner is called per key."""
        staging = [Bucket(split=s) for s in range(splits)]
        with self.tracer.span("runtime.taskrunner.emit", records=len(emitted)):
            if parter is None:
                emitter = make_hash_emitter(staging, splits)
                emitter.emit(emitted)
                emitter.flush()
            else:
                for pair in emitted:
                    staging[parter(pair[0], splits)].addpair(pair, key_to_bytes(pair[0]))
        return staging

    def combine(self, staging: List[Bucket], combiner: Callable) -> List[Bucket]:
        combined = []
        with self.tracer.span("io.bucket.combine", records=sum(map(len, staging))):
            for bucket in staging:
                fresh = Bucket(source=bucket.source, split=bucket.split)
                add_key, add_pair = fresh.collector()
                for keybytes, key, values in bucket.sorted_grouped_lists():
                    for value in combiner(key, iter(values)):
                        add_key(keybytes)
                        add_pair((key, value))
                combined.append(fresh)
        return combined

    def spill(self, staging: List[Bucket], grid: Grid, source: int) -> None:
        row = []
        with self.tracer.span("io.formats.write") as span:
            for split, bucket in enumerate(staging):
                path = os.path.join(self.root, f"s{self.stage}_{source}_{split}.mrsb")
                spill = FileBucket(path, source=source, split=split,
                                   key_serializer=grid.ks, value_serializer=grid.vs,
                                   retain=False)
                spill.absorb(bucket)
                spill.open_writer()
                spill.close_writer()
                row.append(spill)
            span["bytes"] = sum(os.path.getsize(s.path) for s in row)
            span["records"] = sum(map(len, staging))
        grid.buckets.append(row)

    # -- stages --------------------------------------------------------------

    def map_stage(
        self,
        inputs: Iterable[Callable[[], List[KeyValue]]],
        mapper: Callable,
        splits: int,
        parter: Optional[Partitioner] = None,
        combiner: Optional[Callable] = None,
        ks: Optional[str] = None,
        vs: Optional[str] = None,
    ) -> Grid:
        """One map task per element of ``inputs`` (a callable returning
        the task's input pairs, so that reading them is traced too)."""
        self.stage += 1
        grid = Grid(splits, ks, vs)
        for source, read in enumerate(inputs):
            # The task span's self time is the glue between its layers.
            with self.tracer.span("runtime.taskrunner.map_task"):
                staging = self.emit(self.user_map(mapper, read()), splits, parter)
                if combiner is not None:
                    staging = self.combine(staging, combiner)
                self.spill(staging, grid, source)
        return grid

    def column_pairs(self, grid: Grid) -> List[Callable[[], List[KeyValue]]]:
        """Map-task inputs that read split column *j* of ``grid``."""
        def reader(task: int) -> Callable[[], List[KeyValue]]:
            return lambda: [
                pair for records in self.read_column(grid, task) for _, pair in records
            ]

        return [reader(task) for task in range(grid.splits)]

    def reduce_stage(
        self,
        grid: Grid,
        reducer: Callable,
        splits: int,
        parter: Optional[Partitioner] = None,
        mapper: Optional[Callable] = None,
        ks: Optional[str] = None,
        vs: Optional[str] = None,
    ) -> Grid:
        """One reduce (or fused reduce+map) task per split of ``grid``."""
        self.stage += 1
        out = Grid(splits, ks, vs)
        for task in range(grid.splits):
            with self.tracer.span("runtime.taskrunner.reduce_task"):
                lists = self.read_column(grid, task)
                with self.tracer.span("io.bucket.merge", records=sum(map(len, lists))):
                    merged = list(
                        merge_sorted_records([iter(records) for records in lists])
                    )
                with self.tracer.span("user.reduce", records=len(merged)):
                    emitted = [
                        (key, value)
                        for _, key, values in group_sorted_records(merged)
                        for value in (reducer(key, values) or ())
                    ]
                if mapper is not None:
                    emitted = self.user_map(mapper, emitted)
                self.spill(self.emit(emitted, splits, parter), out, task)
        return out

    def pairs(self, grid: Grid) -> Dict[Tuple[int, int], List[KeyValue]]:
        """A grid's records, keyed ``(split, source)``, in file order."""
        out = {}
        for row in grid.buckets:
            for spill in row:
                out[(spill.split, spill.source)] = url_io.fetch_pairs(
                    spill.url, grid.ks, grid.vs
                )
        return out

    def text_output(self, grid: Grid) -> Dict[Tuple[int, int], bytes]:
        """The job's final ``.txt`` files, written through TextWriter."""
        pairs = self.pairs(grid)
        out = {}
        with self.tracer.span("io.formats.write_text") as span:
            for key, bucket in pairs.items():
                path = os.path.join(self.root, f"out_{key[1]}_{key[0]}.txt")
                with open(path, "wb") as f:
                    TextWriter(f).writepairs(bucket)
                with open(path, "rb") as f:
                    out[key] = f.read()
            span["bytes"] = sum(map(len, out.values()))
        return out


# -- what the spans add up to ----------------------------------------------


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    """Layer metrics read off the replay's spans and their counts."""
    total = tracer.total
    write_s, read_s = total("io.formats.write"), total("io.formats.read")
    fetch_s = total("comm.transfer.fetch")
    emitted = total("runtime.taskrunner.emit", "records")
    return {
        "io.bucket.sort_s": total("io.bucket.sort"),
        "io.bucket.combine_s": total("io.bucket.combine"),
        "io.bucket.merge_s": total("io.bucket.merge"),
        "io.formats.write_mb_per_s": harness.rate(total("io.formats.write", "bytes") / MB, write_s),
        "io.formats.read_mb_per_s": harness.rate(total("io.formats.read", "bytes") / MB, read_s),
        "io.formats.spill_bytes": total("io.formats.write", "bytes"),
        "comm.transfer.fetch_mb_per_s": harness.rate(total("comm.transfer.fetch", "bytes") / MB, fetch_s),
        "runtime.taskrunner.emit_records_per_s": harness.rate(
            emitted, total("runtime.taskrunner.emit")
        ),
    }


#: Span-name prefixes that are framework data plane, not user code.
DATAPLANE = ("io.", "native.", "comm.transfer", "runtime.taskrunner.")


def dataplane_seconds(tracer: Tracer) -> float:
    return sum(
        seconds for name, seconds in tracer.self_times().items()
        if name.startswith(DATAPLANE)
    )


# -- micro-probes -----------------------------------------------------------


def per_record(fn: Callable[[], Any], n: int, unit: float) -> float:
    """Run ``fn`` once over ``n`` records; time per record in ``unit``."""
    seconds, _ = harness.timed(fn)
    return seconds / max(1, n) / unit


def serializer_costs(sample: List[KeyValue], ks: Optional[str], vs: Optional[str]) -> Dict[str, float]:
    """``dumps``/``loads`` of the workload's own key and value types."""
    key_s, value_s = get_serializer(ks), get_serializer(vs)
    encoded: List[Tuple[bytes, bytes]] = []

    def encode() -> None:
        encoded.extend((key_s.dumps(k), value_s.dumps(v)) for k, v in sample)

    def decode() -> None:
        for kb, vb in encoded:
            key_s.loads(kb)
            value_s.loads(vb)

    return {
        "io.serializers.encode_us": per_record(encode, len(sample), 1e-6),
        "io.serializers.decode_us": per_record(decode, len(sample), 1e-6),
    }


def partition_costs(sample: List[KeyValue], splits: int,
                    parter: Optional[Partitioner]) -> Dict[str, float]:
    """Routing cost per key, and how unevenly the keys land: records in
    the fullest split over the mean (1.0 is perfectly even; the median
    would be 0 whenever half the splits stay empty)."""
    keys = [pair[0] for pair in sample]
    if parter is None:
        encoded = [key_to_bytes(key) for key in keys]
        seconds, placed = harness.timed(hash_partition_splits, encoded, splits)
    else:
        seconds, placed = harness.timed(lambda: [parter(key, splits) for key in keys])
    counts = [0] * splits
    for split in placed:
        counts[split] += 1
    return {
        "io.partition.route_us": seconds / max(1, len(keys)) / 1e-6,
        "io.partition.skew": max(counts) * splits / max(1, len(keys)),
    }


def native_kernel_costs(sample: List[KeyValue], splits: int, vs: Optional[str]) -> Dict[str, float]:
    """Nanoseconds per record of each C kernel on the workload's keys."""
    names = ("partition_scatter", "sort_index", "group_scatter", "frame", "scan", "merge_pick")
    out = {f"native.kernels.{name}_ns": 0.0 for name in names}
    native = kernels.get()
    out["native.kernels.available"] = 0.0 if native is None else 1.0
    if native is None or len(sample) < kernels.MIN_BATCH:
        return out
    keys = [key_to_bytes(key) for key, _ in sample]
    value_s = get_serializer(vs)
    values = [value_s.dumps(value) for _, value in sample]
    n, ns = len(keys), 1e-9
    out["native.kernels.partition_scatter_ns"] = per_record(
        lambda: native.partition_scatter(keys, splits), n, ns)
    out["native.kernels.sort_index_ns"] = per_record(lambda: native.sort_index(keys), n, ns)
    out["native.kernels.group_scatter_ns"] = per_record(
        lambda: native.group_scatter(keys, sort_groups=True), n, ns)
    framed: List[bytes] = []
    out["native.kernels.frame_ns"] = per_record(
        lambda: framed.append(bytes(native.frame(keys, values))), n, ns)
    out["native.kernels.scan_ns"] = per_record(lambda: native.scan(framed[0]), n, ns)

    # Two key-sorted halves merged back into one stream.
    order = sorted(range(n), key=keys.__getitem__)
    picker = kernels.MergePicker(native, 2)
    for stream in (0, 1):
        chosen = order[stream::2]
        window = bytes(native.frame([keys[i] for i in chosen], [values[i] for i in chosen]))
        count, triples = native.scan(window)
        picker.set_window(stream, window, triples, count)
        picker.mark_done(stream)

    def merge() -> None:
        while picker.pick(None)[0]:
            pass

    out["native.kernels.merge_pick_ns"] = per_record(merge, n, ns)
    return out


def rpc_roundtrip(calls: int = 300) -> Dict[str, float]:
    """A no-op call through ``RpcServer`` + ``rpc_client`` on loopback:
    what every task dispatch and completion pays at least once."""

    class Handler:
        def rpc_noop(self) -> int:
            return 0

    with RpcServer(Handler()) as server:
        client = rpc_client(server.address)
        for _ in range(20):
            client.noop()
        samples = [harness.timed(client.noop)[0] for _ in range(calls)]
    return {
        "comm.rpc.roundtrip_us": harness.median(samples) / 1e-6,
        "comm.rpc.roundtrip_p90_us": harness.percentile(samples, 90) / 1e-6,
    }


def scheduler_dispatch(graph: List[Tuple[str, int]], jobs: int = 1,
                       slaves: int = 2, concurrent: int = 4) -> Dict[str, float]:
    """``add_dataset -> next_task -> task_done`` over the workload's
    dataset graph with no workers attached: the scheduler's own cost per
    task.  ``graph`` is the job's chain of ``(kind, ntasks)``; with
    ``jobs`` > 1 that chain is submitted once per job id, ``concurrent``
    jobs at a time, the way the service admits them."""
    scheduler = Scheduler()
    for slave in range(slaves):
        scheduler.add_slave(slave)
    tasks = 0
    spent = 0.0
    for wave in range(0, jobs, concurrent):
        began = time.perf_counter()
        for job in range(wave, min(jobs, wave + concurrent)):
            job_id = f"job-{job}" if jobs > 1 else None
            previous = f"j{job}.source"
            scheduler.mark_input_complete(previous)
            for index, (kind, ntasks) in enumerate(graph):
                dataset_id = f"j{job}.{kind}_{index}"
                scheduler.add_dataset(ScheduledDataset(
                    dataset_id, ntasks, affinity_group=f"{kind}_{index}",
                    input_id=previous, job_id=job_id,
                ))
                previous = dataset_id
        progressed = True
        while progressed:
            progressed = False
            for slave in range(slaves):
                task = scheduler.next_task(slave)
                if task is not None:
                    scheduler.task_done(slave, task)
                    tasks += 1
                    progressed = True
        spent += time.perf_counter() - began
    return {
        "runtime.scheduler.dispatch_us": spent / max(1, tasks) / 1e-6,
        "runtime.scheduler.tasks": float(tasks),
    }


def taskrunner_costs(program: Any, pairs: List[KeyValue], splits: int,
                     combine: bool, root: str) -> Dict[str, float]:
    """``run_map_task`` over one input split, then ``run_reduce_task``
    over the fullest bucket it wrote: the two calls every worker makes,
    whole, for comparison with the sum of their parts above."""
    map_op = MapOperation("map", splits, combine_name="combine" if combine else None)
    map_s, written = harness.timed(
        run_map_task, program, map_op, pairs, file_bucket_factory(root, "probe_map", 0)
    )
    fullest = max(written, key=len)
    inputs = buckets_from_urls(
        [fullest.url], fullest.split, streaming=True, sorted_flags=[fullest.url_sorted]
    )
    reduce_s, _ = harness.timed(
        run_reduce_task, program, ReduceOperation("reduce", splits), inputs,
        file_bucket_factory(root, "probe_reduce", 0),
    )
    return {
        "runtime.taskrunner.map_task_s": map_s,
        "runtime.taskrunner.reduce_task_s": reduce_s,
    }


def dataserver_throughput(root: str, path: str) -> float:
    """MB/s of a plain ``http.client`` GET of one bucket file (the
    ``sendfile`` path, no decoding on either side)."""
    with DataServer(root, compression=False) as server:
        url = server.url_for(path)
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)

        def get() -> int:
            conn.request("GET", url.split(f":{server.port}", 1)[1])
            return len(conn.getresponse().read())

        get()
        seconds, size = harness.timed(get)
        conn.close()
    return harness.rate(size / MB, seconds)


def array_view_throughput(block: Any, root: str) -> Dict[str, float]:
    """The large-value path on one matrix block: ``dumps_parts`` into a
    file, ``loads_view`` back out of it, and a ``BinReader`` walk over an
    mmap of the same bytes."""
    numpy_s = get_serializer("numpy")
    dumps_parts = dumps_parts_for(numpy_s) or (lambda obj: (numpy_s.dumps(obj),))
    loads_view = loads_view_for(numpy_s) or numpy_s.loads
    gb = block.nbytes / 1e9

    def roundtrip() -> None:
        buffer = io.BytesIO()
        for part in dumps_parts(block):
            buffer.write(part)
        loads_view(buffer.getbuffer())

    view_s, _ = harness.timed(roundtrip)
    path = os.path.join(root, "block.mrsb")
    with open(path, "wb") as f:
        with BinWriter(f, get_serializer("int"), numpy_s) as writer:
            writer.writepair((0, block))

    def mmap_read() -> float:
        with open(path, "rb") as f:
            reader = BinReader(f, get_serializer("int"), numpy_s, use_mmap=True)
            checksum = sum(float(value.sum()) for _, value in reader)  # touch every page
            reader.close()
        return checksum

    mmap_s, _ = harness.timed(mmap_read)
    return {
        "io.serializers.view_gb_per_s": harness.rate(gb, view_s),
        "io.formats.mmap_read_gb_per_s": harness.rate(gb, mmap_s),
    }
