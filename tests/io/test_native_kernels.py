"""Native shuffle kernels: C paths must be invisible optimizations.

Every kernel in ``src/repro/native/_shuffle.c`` mirrors a pure-Python
loop; these tests pin the contract three ways: bit-level parity of the
primitives (CRC/hash/partition/sort/group/frame/scan) against their
Python references, byte-identical ``.mrsb`` files and split
assignments between ``MRS_NATIVE=on`` and ``off`` over random
mixed-type batches (hypothesis), and graceful-fallback behavior of the
compile/cache layer (``CC`` honored, ``auto`` silent, ``on`` loud).

Kernel-parity tests skip when no compiler is available; the fallback
tests run everywhere.
"""

import io
import os
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.operations import ReduceOperation
from repro.core.options import default_options
from repro.core.program import MapReduce
from repro.io import formats
from repro.io.bucket import Bucket, FileBucket
from repro.io.partition import hash_partition_bytes, hash_partition_splits
from repro.io.serializers import get_serializer
from repro.native import compile as native_compile
from repro.native import kernels
from repro.native.compile import CompilerUnavailable
from repro.runtime.taskrunner import memory_bucket_factory, run_reduce_task
from repro.util.hashing import key_to_bytes, stable_hash_bytes

HAVE_COMPILER = native_compile.find_compiler() is not None

needs_compiler = pytest.mark.skipif(
    not HAVE_COMPILER, reason="no C compiler available"
)


@pytest.fixture
def native():
    kernels.set_mode("auto")
    lib = kernels.get()
    if lib is None:
        pytest.skip("native kernels unavailable")
    yield lib
    kernels.set_mode("auto")


@pytest.fixture
def native_off(monkeypatch):
    """Force the pure-Python path for the duration of a test."""
    kernels.set_mode("off")
    yield
    kernels.set_mode("auto")


# ---------------------------------------------------------------------
# Primitive parity
# ---------------------------------------------------------------------


@needs_compiler
class TestPrimitives:
    def test_crc_and_hash_match_zlib(self, native):
        for data in [b"", b"a", b"hello world", bytes(range(256)) * 7]:
            assert native.crc32(data) == zlib.crc32(data)
            assert native.hash64(data) == stable_hash_bytes(data)

    @given(st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_hash64_property(self, data):
        lib = kernels.get()
        assert lib is not None
        assert lib.hash64(data) == stable_hash_bytes(data)

    def test_splits_match_scalar_partitioner(self, native):
        keys = [key_to_bytes(k) for k in ["a", "bb", 3, (4, "x"), b"raw", 2.5]]
        keys = keys * 20
        for n_splits in (1, 2, 7, 64):
            got = list(hash_partition_splits(keys, n_splits))
            want = [hash_partition_bytes(kb, n_splits) for kb in keys]
            assert got == want

    def test_partition_scatter_is_stable(self, native):
        keys = [key_to_bytes(f"k{i % 13}") for i in range(500)]
        order, bounds = native.partition_scatter(keys, 5)
        want = [hash_partition_bytes(kb, 5) for kb in keys]
        for split in range(5):
            got_idx = list(order[bounds[split]:bounds[split + 1]])
            assert got_idx == [i for i, s in enumerate(want) if s == split]

    def test_sort_index_matches_stable_python_sort(self, native):
        keys = [key_to_bytes(k) for k in [5, "b", "a", 5, b"a", "a", 1.5, "b"]]
        keys = keys * 16
        assert list(native.sort_index(keys)) == sorted(
            range(len(keys)), key=keys.__getitem__
        )

    def test_group_scatter_matches_dict_grouping(self, native):
        raw = [f"w{i % 9}" for i in range(300)]
        keys = [key_to_bytes(k) for k in raw]
        bucket = Bucket()
        for i, (kb, word) in enumerate(zip(keys, raw)):
            bucket.addpair((word, i), kb)
        want = bucket.hash_grouped_records()
        ngroups, order, bounds = native.group_scatter(keys)
        assert ngroups == len(want)
        for g, (kb, key, values) in enumerate(want):
            lo, hi = bounds[g], bounds[g + 1]
            assert all(keys[i] == kb for i in order[lo:hi])
            assert [bucket[i][1] for i in order[lo:hi]] == values

    def test_sorted_grouped_lists_matches_pure(self, native):
        raw = [(f"w{(i * 7) % 11}", i) for i in range(400)]
        native_bucket, pure_bucket = Bucket(), Bucket()
        for pair in raw:
            native_bucket.addpair(pair)
            pure_bucket.addpair(pair)
        got = native_bucket.sorted_grouped_lists()
        kernels.set_mode("off")
        try:
            want = pure_bucket.sorted_grouped_lists()
        finally:
            kernels.set_mode("auto")
        assert got == want

    def test_frame_scan_roundtrip(self, native):
        header = struct.Struct("!II")
        keys = [b"", b"k", b"key" * 50]
        values = [b"v", b"", b"value" * 99]
        want = b"".join(
            header.pack(len(k), len(v)) + k + v for k, v in zip(keys, values)
        )
        framed = bytes(native.frame(keys, values))
        assert framed == want
        count, triples = native.scan(framed)
        assert count == len(keys)
        got = [
            (
                framed[triples[3 * i]:triples[3 * i + 1]],
                framed[triples[3 * i + 1]:triples[3 * i + 2]],
            )
            for i in range(count)
        ]
        assert got == list(zip(keys, values))
        # A truncated tail parses to one fewer record.
        count, _ = native.scan(framed[:-1])
        assert count == len(keys) - 1


# ---------------------------------------------------------------------
# The reduce-side merge over sorted files
# ---------------------------------------------------------------------


def _write_sorted_file(path, pairs, value_serializer="int"):
    """Write key-sorted str-keyed pairs as a canonical .mrsb bucket."""
    with open(path, "wb") as f:
        writer = formats.BinWriter(
            f,
            key_serializer=get_serializer("str"),
            value_serializer=get_serializer(value_serializer),
        )
        writer.writerecords([(key_to_bytes(k), (k, v)) for k, v in pairs])
        writer.finish()


class ListValues(MapReduce):
    """Reduce to the group's values, in the order the merge hands them."""

    def reduce(self, key, values):
        yield list(values)


@needs_compiler
class TestNativeMerge:
    """``run_reduce_task`` over URL-only, key-sorted ``str``-key files,
    read through ``BinReader``'s native scan and merged by the streaming
    heap merge."""

    def _make_buckets(self, tmp_path, streams, value_serializer="int"):
        buckets = []
        for source, pairs in enumerate(streams):
            path = tmp_path / f"m_{source}_0.mrsb"
            _write_sorted_file(str(path), pairs, value_serializer)
            bucket = Bucket(source=source, split=0, url=f"file:{path}")
            bucket.url_sorted = True
            bucket.key_serializer = "str"
            bucket.value_serializer = value_serializer
            buckets.append(bucket)
        return buckets

    def _reduce(self, buckets):
        program = ListValues(default_options(), [])
        (out,) = run_reduce_task(
            program, ReduceOperation("reduce", splits=1), buckets,
            memory_bucket_factory(0),
        )
        return list(out)

    def test_tie_break_prefers_lower_stream(self, tmp_path, native):
        # Equal keys in several streams: heapq.merge yields stream 0's
        # records first, and record order within a stream is preserved.
        streams = [[("dup", 100 + i) for i in range(3)] for _ in range(3)]
        buckets = self._make_buckets(tmp_path, streams)
        assert self._reduce(buckets) == [("dup", [100, 101, 102] * 3)]

    def test_value_larger_than_read_window(self, tmp_path, native):
        big = bytes(range(256)) * (3 * 4096)  # 3 MiB: three read windows
        assert len(big) > formats._READ_CHUNK
        streams = [
            [("a", b"a0"), ("m", big), ("z", b"z0")],
            [("m", b"m1"), ("q", big[::-1])],
        ]
        buckets = self._make_buckets(tmp_path, streams, value_serializer="raw")
        assert self._reduce(buckets) == [
            ("a", [b"a0"]),
            ("m", [big, b"m1"]),
            ("q", [big[::-1]]),
            ("z", [b"z0"]),
        ]


# ---------------------------------------------------------------------
# Property: native and pure paths are byte-identical
# ---------------------------------------------------------------------

mixed_keys = st.one_of(
    st.text(max_size=8),
    st.binary(max_size=8),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.tuples(st.text(max_size=3), st.integers(-100, 100)),
)
mixed_values = st.one_of(
    st.integers(-(2**40), 2**40), st.text(max_size=12), st.none()
)
batches = st.lists(st.tuples(mixed_keys, mixed_values), max_size=120)


@needs_compiler
class TestModeByteIdentity:
    @given(batch=batches, n_splits=st.integers(min_value=1, max_value=9))
    @settings(max_examples=60, deadline=None)
    def test_splits_identical(self, batch, n_splits):
        keys = [key_to_bytes(k) for k, _ in batch]
        kernels.set_mode("auto")
        assert kernels.get() is not None
        native = list(hash_partition_splits(keys, n_splits))
        kernels.set_mode("off")
        try:
            pure = list(hash_partition_splits(keys, n_splits))
        finally:
            kernels.set_mode("auto")
        assert native == pure

    @given(batch=batches)
    @settings(max_examples=60, deadline=None)
    def test_mrsb_files_identical(self, batch):
        # Pickle-serializer records exercise the generic writer; the
        # canonical tag path is covered by str keys below.
        outputs = {}
        for mode in ("auto", "off"):
            kernels.set_mode(mode)
            try:
                buf = io.BytesIO()
                writer = formats.BinWriter(buf)
                writer.writerecords(
                    [(key_to_bytes(k), (k, v)) for k, v in batch]
                )
                outputs[mode] = buf.getvalue()
            finally:
                kernels.set_mode("auto")
        assert outputs["auto"] == outputs["off"]

    @given(words=st.lists(st.text(min_size=1, max_size=6), max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_canonical_str_files_and_readback_identical(self, words):
        records = [(key_to_bytes(w), (w, 1)) for w in words]
        outputs = {}
        for mode in ("auto", "off"):
            kernels.set_mode(mode)
            try:
                buf = io.BytesIO()
                writer = formats.BinWriter(
                    buf,
                    key_serializer=get_serializer("str"),
                    value_serializer=get_serializer("int"),
                )
                writer.writerecords(records)
                data = buf.getvalue()
                reader = formats.BinReader(
                    io.BytesIO(data),
                    key_serializer=get_serializer("str"),
                    value_serializer=get_serializer("int"),
                )
                outputs[mode] = (data, list(reader.iter_records()))
            finally:
                kernels.set_mode("auto")
        assert outputs["auto"] == outputs["off"]
        assert outputs["auto"][1] == records

    @given(batch=batches)
    @settings(max_examples=40, deadline=None)
    def test_bucket_sort_identical(self, batch):
        results = {}
        for mode in ("auto", "off"):
            kernels.set_mode(mode)
            try:
                bucket = Bucket()
                for pair in batch:
                    bucket.addpair(pair)
                bucket.sort()
                results[mode] = (list(bucket._keys), list(bucket._pairs))
            finally:
                kernels.set_mode("auto")
        assert results["auto"] == results["off"]


# ---------------------------------------------------------------------
# Compile layer: CC, cache tag, fallback modes
# ---------------------------------------------------------------------


class TestCompileLayer:
    def test_cc_env_wins(self, monkeypatch, tmp_path):
        fake = tmp_path / "mycc"
        fake.write_text("#!/bin/sh\nexit 0\n")
        fake.chmod(0o755)
        monkeypatch.setenv("CC", f"{fake} -m64")
        compiler = native_compile.find_compiler()
        assert compiler == [str(fake), "-m64"]

    def test_missing_cc_is_unavailable_not_fallback(self, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent/compiler-xyz")
        assert native_compile.find_compiler() is None
        with pytest.raises(CompilerUnavailable, match="CC="):
            native_compile.build_shared_library(
                os.path.join(
                    os.path.dirname(kernels.__file__), "_shuffle.c"
                ),
                "repro_test_cc",
                ["-O2", "-shared", "-fPIC"],
            )

    def test_user_cache_tag_without_getuid(self, monkeypatch):
        monkeypatch.delattr(os, "getuid", raising=False)
        tag = native_compile.user_cache_tag()
        assert tag
        assert all(c.isalnum() or c in "_.-" for c in tag)

    def test_auto_mode_falls_back_silently(self, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent/compiler-xyz")
        kernels.set_mode("auto")
        try:
            assert kernels.get() is None
            assert not kernels.available()
        finally:
            kernels.set_mode("auto")

    def test_on_mode_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent/compiler-xyz")
        kernels.set_mode("on")
        try:
            with pytest.raises(CompilerUnavailable):
                kernels.get()
            assert not kernels.available()
        finally:
            kernels.set_mode("auto")

    def test_off_mode_never_compiles(self):
        kernels.set_mode("off")
        try:
            assert kernels.get() is None
            assert os.environ.get("MRS_NATIVE") == "off"
        finally:
            kernels.set_mode("auto")

    def test_pure_fallback_still_shuffles(self, monkeypatch, tmp_path):
        # With a broken compiler and auto mode, the whole write/sort/
        # read pipeline runs pure-Python and stays correct.
        monkeypatch.setenv("CC", "/nonexistent/compiler-xyz")
        kernels.set_mode("auto")
        try:
            assert kernels.get() is None
            bucket = FileBucket(
                str(tmp_path / "b.mrsb"),
                key_serializer="str",
                value_serializer="int",
            )
            for word in ["b", "a", "c", "a"]:
                bucket.addpair((word, 1))
            bucket.open_writer()
            bucket.close_writer()
            assert bucket.readback() == [("b", 1), ("a", 1), ("c", 1), ("a", 1)]
            bucket.sort()
            assert [p[0] for p in bucket.sorted_pairs()] == ["a", "a", "b", "c"]
        finally:
            kernels.set_mode("auto")

    @needs_compiler
    def test_halton_reuses_shared_compile(self):
        from repro.apps.pi import halton_ctypes

        assert halton_ctypes.CompilerUnavailable is CompilerUnavailable
        assert halton_ctypes.is_available()


# ---------------------------------------------------------------------
# Streaming regression: sorted URLs must not be materialized
# ---------------------------------------------------------------------


class TestSortedUrlStreaming:
    def test_sorted_records_from_url_streams(self, tmp_path, monkeypatch):
        """A url_sorted bucket must stream: no list() materialization.

        Read through a counting file wrapper and assert the stream
        yields its first record after a bounded number of reads — a
        materializing implementation would consume the whole file
        before yielding anything.
        """
        from repro.io.bucket import sorted_records_from_url

        path = tmp_path / "big.mrsb"
        pairs = sorted((f"key{i:07d}", i) for i in range(20000))
        _write_sorted_file(str(path), pairs)

        reads = {"n": 0}
        real_open = open

        def counting_open(file, *args, **kwargs):
            f = real_open(file, *args, **kwargs)
            real_read = f.read

            def read(*a):
                reads["n"] += 1
                return real_read(*a)

            f.read = read
            return f

        import builtins

        monkeypatch.setattr(builtins, "open", counting_open)
        stream = sorted_records_from_url(f"file:{path}", True, "str", "int")
        first = next(iter(stream))
        assert first[1] == pairs[0]
        # One magic read + one chunk read (+ maybe one readahead); a
        # materializing path would need the whole multi-MB file first.
        assert reads["n"] <= 4

    def test_unsorted_url_still_sorts(self, tmp_path):
        from repro.io.bucket import sorted_records_from_url

        path = tmp_path / "unsorted.mrsb"
        _write_sorted_file(str(path), [("b", 2), ("a", 1), ("c", 3)][::-1])
        records = list(
            sorted_records_from_url(f"file:{path}", False, "str", "int")
        )
        assert [r[1][0] for r in records] == ["a", "b", "c"]


class TestCheckpointSortedFlags:
    def test_roundtrip_preserves_sorted_flag(self, tmp_path):
        from repro.core.dataset import BaseDataset
        from repro.io import checkpoint

        dataset = BaseDataset(
            splits=1, prefix="t", key_serializer="str", value_serializer="int"
        )
        sorted_bucket = Bucket(source=0, split=0)
        for word in ["a", "b", "c"]:
            sorted_bucket.addpair((word, 1))
        unsorted_bucket = Bucket(source=1, split=0)
        for word in ["z", "y"]:
            unsorted_bucket.addpair((word, 1))
        dataset.add_bucket(sorted_bucket)
        dataset.add_bucket(unsorted_bucket)
        dataset.complete = True
        path = str(tmp_path / "ckpt")
        checkpoint.write_checkpoint(path, dataset)

        loaded = checkpoint.load_checkpoint(path)
        flags = {
            (b.source, b.split): b.url_sorted
            for b in loaded.existing_buckets()
        }
        assert flags[(0, 0)] is True
        assert flags[(1, 0)] is False

    def test_version_1_manifest_still_loads(self, tmp_path):
        import json

        from repro.core.dataset import BaseDataset
        from repro.io import checkpoint

        dataset = BaseDataset(
            splits=1, prefix="t", key_serializer="str", value_serializer="int"
        )
        bucket = Bucket(source=0, split=0)
        bucket.addpair(("a", 1))
        dataset.add_bucket(bucket)
        dataset.complete = True
        path = str(tmp_path / "ckpt")
        checkpoint.write_checkpoint(path, dataset)
        manifest_path = os.path.join(path, checkpoint.MANIFEST)
        with open(manifest_path) as f:
            manifest = json.load(f)
        manifest["version"] = 1
        for entry in manifest["buckets"]:
            entry.pop("sorted", None)
        with open(manifest_path, "w") as f:
            json.dump(manifest, f)

        loaded = checkpoint.load_checkpoint(path)
        (bucket,) = loaded.existing_buckets()
        assert bucket.url_sorted is False  # conservative default
        assert list(bucket) == [("a", 1)]
