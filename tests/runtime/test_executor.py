"""execute_descriptor: the one descriptor -> buckets -> metrics routine
behind both the cluster slave and the pool worker."""

import os
import tracemalloc
import xmlrpc.client

import repro as mrs

from repro.comm import protocol
from repro.core.dataset import LocalData
from repro.core.job import Job
from repro.core.operations import MapOperation, ReduceOperation
from repro.core.options import default_options
from repro.io import urls as url_io
from repro.runtime import dataplane
from repro.runtime.executor import execute_descriptor
from repro.runtime.serial import SerialBackend

from tests.runtime.programs_mp import Tally


def make_descriptor(tmp_path, outdir):
    source = LocalData([(i, i) for i in range(9)], splits=1)
    bucket = source.bucket(0, 0)
    path = dataplane.spill_bucket(source, bucket, str(tmp_path / "in"))
    return protocol.make_task_descriptor(
        dataset_id="map_x",
        task_index=0,
        op_dict=MapOperation(map_name="map", splits=2).to_dict(),
        input_urls=["file:" + path],
        outdir=outdir,
        format_ext="mrsb",
        input_sorted=[bucket.url_sorted],
    )


def test_slave_and_pool_paths_agree(tmp_path):
    """Same descriptor, same answer: the two callers differ only in the
    label on their per-task registry names."""
    program = Tally(default_options(), [])
    descriptor = make_descriptor(tmp_path, str(tmp_path / "shared"))
    as_slave = execute_descriptor(
        program, descriptor, "slave",
        localdir=str(tmp_path / "local"), boot_seconds=1.5,
    )
    as_worker = execute_descriptor(
        program, descriptor, "worker", boot_seconds=1.5
    )
    urls, seconds, metrics = as_worker
    assert as_slave[0] == urls
    # The three keys all route to split 0: split 1 has no records, so
    # no file is written for it and none is reported.
    assert [entry[0] for entry in urls] == [0]
    assert os.listdir(tmp_path / "shared") == ["map_x_0_0.mrsb"]
    assert all(
        entry[1].startswith("file:" + str(tmp_path / "shared")) for entry in urls
    )
    assert seconds > 0
    assert as_slave[2].keys() == metrics.keys()
    assert [name for name, _ in metrics["span"]["marks"]] == [
        name for name, _ in as_slave[2]["span"]["marks"]
    ]

    def names(payload, label):
        registry = payload["registry"]
        found = {
            name.replace(label + ".", "", 1)
            for kind in ("counters", "gauges", "histograms")
            for name in registry.get(kind, {})
        }
        assert f"{label}.tasks.completed" in registry["counters"]
        return found

    assert names(as_slave[2], "slave") == names(metrics, "worker")
    pairs = [
        pair for entry in urls for pair in url_io.fetch_pairs(entry[1])
    ]
    assert sorted(pairs) == sorted((i % 3, 1) for i in range(9))


def test_local_output_is_published_through_url_for(tmp_path):
    """No shared outdir (http data plane): buckets stay under the
    worker's local dir and are advertised by its data server's URLs."""
    program = Tally(default_options(), [])
    descriptor = make_descriptor(tmp_path, None)
    localdir = str(tmp_path / "local")
    urls, _, _ = execute_descriptor(
        program, descriptor, "slave",
        localdir=localdir, url_for=lambda path: "http://host:1/" + path,
    )
    for entry in urls:
        path = entry[1][len("http://host:1/"):]
        assert os.path.dirname(path) == os.path.join(localdir, "map_x")
        assert os.path.exists(path)


def test_done_metrics_carry_the_span_once(tmp_path):
    """One wire record: the payload is the executor's span (four marks
    as offsets from task start) and its per-task registry — no second
    copy of the phase boundaries as durations or as an event batch."""
    program = Tally(default_options(), [])
    mapped = execute_descriptor(
        program, make_descriptor(tmp_path, str(tmp_path / "shared")), "slave"
    )
    descriptor = protocol.make_task_descriptor(
        dataset_id="reduce_x",
        task_index=0,
        op_dict=ReduceOperation(reduce_name="reduce", splits=1).to_dict(),
        input_urls=[entry[1] for entry in mapped[0] if entry[0] == 0],
        outdir=str(tmp_path / "shared"),
        format_ext="mrsb",
        input_sorted=[entry[2] for entry in mapped[0] if entry[0] == 0],
    )
    _, seconds, metrics = execute_descriptor(program, descriptor, "slave")
    assert set(metrics) == {"span", "registry"}
    assert set(metrics["span"]) == {"marks"}
    marks = metrics["span"]["marks"]
    assert [name for name, _ in marks] == [
        "fetch", "reduce", "serialize", "transfer",
    ]
    offsets = [offset for _, offset in marks]
    assert offsets == sorted(offsets) and 0.0 <= offsets[0]
    assert offsets[-1] <= seconds
    marshalled = xmlrpc.client.dumps((metrics,), allow_none=True)
    assert len(marshalled) < 2000  # 3559 with durations + event batch


def test_sampler_adds_health_and_buckets(tmp_path):
    """The sampler adds a health sample to the metrics; each bucket's
    size rides once, in its URL tuple, sampler or not."""
    from repro.observability.telemetry import HealthSampler

    program = Tally(default_options(), [])
    urls, _, metrics = execute_descriptor(
        program,
        make_descriptor(tmp_path, str(tmp_path / "shared")),
        "worker",
        sampler=HealthSampler(),
    )
    assert set(metrics) == {"span", "registry", "health"}
    assert metrics["health"]["rss_bytes"] > 0
    for _, url, _, records, nbytes in urls:
        path = url[len("file:"):]
        assert nbytes == os.path.getsize(path) > 0
        assert records == len(url_io.fetch_pairs(url))
    assert sum(entry[3] for entry in urls) == 9  # one per input pair


class Silent(mrs.MapReduce):
    """A map that reads every record and emits nothing."""

    def map(self, key, value):
        return None


def write_text(path, nbytes):
    line = "the quick brown fox jumps over the lazy dog %d\n"
    with open(path, "w") as f:
        written = index = 0
        while written < nbytes:
            written += f.write(line % index)
            index += 1
    return path


def peak_bytes(run):
    """Bytes allocated at the peak of ``run()`` beyond what was live
    before it, under tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


#: A map task's input size for the streaming checks, and the most it
#: may allocate: a task that reads its input into lists first peaks
#: near 20 MB on this input, while a streaming one needs only its own
#: set-up (under 10 kB).
STREAM_INPUT_BYTES = 4 << 20
STREAM_PEAK_LIMIT = 1 << 20


def test_map_task_streams_its_input_through_execute_descriptor(tmp_path):
    """A map task reads its input record by record: over a 4 MB text
    file, with a mapper that emits nothing, the task never holds the
    file's records."""
    path = write_text(str(tmp_path / "in.txt"), STREAM_INPUT_BYTES)
    descriptor = protocol.make_task_descriptor(
        dataset_id="map_s",
        task_index=0,
        op_dict=MapOperation(map_name="map", splits=2).to_dict(),
        input_urls=["file:" + path],
        outdir=str(tmp_path / "out"),
        format_ext="mrsb",
    )
    program = Silent(default_options(), [])
    results = []
    peak = peak_bytes(
        lambda: results.append(execute_descriptor(program, descriptor, "slave"))
    )
    assert results[0][0] == []  # nothing emitted, nothing written
    assert peak < STREAM_PEAK_LIMIT, f"map task peaked at {peak} bytes"


def test_map_task_streams_its_input_through_serial_backend(tmp_path):
    path = write_text(str(tmp_path / "in.txt"), STREAM_INPUT_BYTES)
    program = Silent(default_options(), [])
    job = Job(SerialBackend(program), program)
    source = job.file_data([path])
    mapped = job.map_data(source, program.map, splits=2)
    peak = peak_bytes(lambda: job.wait(mapped))
    assert mapped.complete and mapped.data() == []
    assert peak < STREAM_PEAK_LIMIT, f"map task peaked at {peak} bytes"
