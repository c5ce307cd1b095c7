"""Bucket invariants: sort/group, merge, file backing, sidecars, and
key-sorted URL inputs (streaming, reduce-side merge, checkpoint flag)."""

import os

import pytest
from hypothesis import given, strategies as st

from repro.core.operations import ReduceOperation
from repro.core.options import default_options
from repro.core.program import MapReduce
from repro.io import formats
from repro.io.bucket import (
    Bucket,
    FileBucket,
    SidecarFileBucket,
    group_sorted,
    merge_sorted_buckets,
    sort_key,
)
from repro.io.serializers import get_serializer
from repro.runtime.taskrunner import memory_bucket_factory, run_reduce_task
from repro.util.hashing import key_to_bytes


def make_bucket(pairs, **kw):
    bucket = Bucket(**kw)
    bucket.collect(pairs)
    return bucket


class TestBucket:
    def test_collect_and_len(self):
        bucket = make_bucket([("a", 1), ("b", 2)])
        assert len(bucket) == 2
        assert bucket[0] == ("a", 1)

    def test_sort_orders_by_canonical_key(self):
        bucket = make_bucket([("b", 1), ("a", 2), ("b", 0)])
        assert bucket.sorted_pairs() == [("a", 2), ("b", 1), ("b", 0)]

    def test_sort_is_stable_for_equal_keys(self):
        bucket = make_bucket([("k", i) for i in range(10)])
        assert [v for _, v in bucket.sorted_pairs()] == list(range(10))

    def test_already_sorted_detection(self):
        bucket = make_bucket([("a", 1), ("b", 2), ("c", 3)])
        assert bucket.is_sorted
        bucket.addpair(("a", 9))
        assert not bucket.is_sorted

    def test_mixed_type_keys_sortable(self):
        """int and str keys cannot be compared directly in Python 3;
        the canonical byte encoding makes grouping well-defined."""
        bucket = make_bucket([(1, "x"), ("a", "y"), (2, "z")])
        assert len(bucket.sorted_pairs()) == 3

    def test_grouped(self):
        bucket = make_bucket([("b", 1), ("a", 2), ("b", 3)])
        groups = [(k, list(vs)) for k, vs in bucket.grouped()]
        assert groups == [("a", [2]), ("b", [1, 3])]

    def test_clean_drops_pairs_keeps_url(self):
        bucket = make_bucket([("a", 1)], url="file:/nope")
        bucket.clean()
        assert len(bucket) == 0
        assert bucket.url == "file:/nope"


class TestLazySortedness:
    def test_empty_bucket_is_sorted(self):
        assert Bucket().is_sorted

    def test_appends_defer_the_check(self):
        """addpair does no comparisons; the flag is tri-state and only
        resolved (then cached) when ``is_sorted`` is read."""
        bucket = make_bucket([("a", 1), ("b", 2), ("c", 3)])
        assert bucket._sorted is None
        assert bucket.is_sorted
        assert bucket._sorted is True

    def test_out_of_order_appends_resolve_false(self):
        bucket = make_bucket([("b", 1), ("a", 2)])
        assert bucket._sorted is None
        assert not bucket.is_sorted
        assert bucket._sorted is False

    def test_sort_restores_the_flag(self):
        bucket = make_bucket([("b", 1), ("a", 2)])
        bucket.sort()
        assert bucket.is_sorted
        assert list(bucket) == [("a", 2), ("b", 1)]

    def test_collector_appends_in_lockstep(self):
        bucket = Bucket()
        add_key, add_pair = bucket.collector()
        for pair in [("a", 1), ("b", 2)]:
            add_key(key_to_bytes(pair[0]))
            add_pair(pair)
        assert list(bucket) == [("a", 1), ("b", 2)]
        assert bucket.is_sorted
        assert bucket.sorted_pairs() == [("a", 1), ("b", 2)]

    def test_collector_marks_sort_state_unknown(self):
        bucket = make_bucket([("a", 1), ("b", 2)])
        assert bucket.is_sorted
        add_key, add_pair = bucket.collector()
        add_key(key_to_bytes("a"))
        add_pair(("a", 3))
        assert not bucket.is_sorted

    def test_extend_records_matches_addpair_loop(self):
        pairs = [("b", 1), ("a", 2), ("c", 3)]
        records = [(key_to_bytes(k), (k, v)) for k, v in pairs]
        bulk = Bucket()
        bulk.extend_records(records)
        loop = make_bucket(pairs)
        assert list(bulk) == list(loop)
        assert bulk.sorted_pairs() == loop.sorted_pairs()


class TestHashGroupedRecords:
    def test_empty(self):
        assert Bucket().hash_grouped_records() == []

    def test_groups_in_first_encounter_order(self):
        bucket = make_bucket([("b", 1), ("a", 2), ("b", 3)])
        groups = bucket.hash_grouped_records()
        assert groups == [
            (key_to_bytes("b"), "b", [1, 3]),
            (key_to_bytes("a"), "a", [2]),
        ]

    def test_partitions_same_groups_as_sorted_grouping(self):
        pairs = [("b", 1), (1, "x"), ("a", 2), ("b", 3), (1, "y")]
        bucket = make_bucket(pairs)
        hashed = {kb: values for kb, _, values in bucket.hash_grouped_records()}
        by_sort = {
            key_to_bytes(key): list(values) for key, values in bucket.grouped()
        }
        assert hashed == by_sort


class TestGroupSorted:
    def test_empty(self):
        assert list(group_sorted([])) == []

    def test_values_are_lazy_iterators(self):
        pairs = sorted([("a", 1), ("a", 2), ("b", 3)], key=sort_key)
        for key, values in group_sorted(pairs):
            first = next(values)
            assert first in (1, 3)
            break  # abandoning the group iterator must not blow up

    def test_single_key(self):
        groups = [(k, list(v)) for k, v in group_sorted([("x", i) for i in range(5)])]
        assert groups == [("x", [0, 1, 2, 3, 4])]


class TestMergeSorted:
    def test_merge_two_buckets(self):
        b1 = make_bucket([("a", 1), ("c", 3)])
        b2 = make_bucket([("b", 2), ("d", 4)])
        merged = [k for k, _ in merge_sorted_buckets([b1, b2])]
        assert merged == ["a", "b", "c", "d"]

    def test_merge_preserves_source_order_for_ties(self):
        b1 = make_bucket([("k", "first")], source=0)
        b2 = make_bucket([("k", "second")], source=1)
        values = [v for _, v in merge_sorted_buckets([b1, b2])]
        assert values == ["first", "second"]

    def test_merge_empty(self):
        assert list(merge_sorted_buckets([])) == []


class TestFileBucket:
    def test_write_and_readback(self, tmp_path):
        path = str(tmp_path / "bucket.mrsb")
        bucket = FileBucket(path, source=1, split=2)
        bucket.addpair(("word", 3))
        bucket.addpair((5, [1, 2]))
        bucket.close_writer()
        assert bucket.readback() == [("word", 3), (5, [1, 2])]
        assert bucket.url == "file:" + path

    def test_empty_file_created_on_open(self, tmp_path):
        path = str(tmp_path / "empty.mrsb")
        bucket = FileBucket(path)
        bucket.open_writer()
        bucket.close_writer()
        assert os.path.exists(path)
        assert bucket.readback() == []

    def test_text_format_selected_by_extension(self, tmp_path):
        path = str(tmp_path / "out.txt")
        bucket = FileBucket(path)
        bucket.addpair(("hello", 2))
        bucket.close_writer()
        assert open(path).read() == "hello\t2\n"


class TestFileBucketSpill:
    def test_url_sorted_tracks_insertion_order(self, tmp_path):
        sorted_bucket = FileBucket(str(tmp_path / "sorted.mrsb"))
        for pair in [("a", 1), ("b", 2)]:
            sorted_bucket.addpair(pair)
        sorted_bucket.close_writer()
        assert sorted_bucket.url_sorted

        unsorted_bucket = FileBucket(str(tmp_path / "unsorted.mrsb"))
        for pair in [("b", 1), ("a", 2)]:
            unsorted_bucket.addpair(pair)
        unsorted_bucket.close_writer()
        assert not unsorted_bucket.url_sorted

    def test_retain_false_keeps_no_pairs_in_memory(self, tmp_path):
        bucket = FileBucket(str(tmp_path / "spill.mrsb"), retain=False)
        bucket.addpair(("a", 1))
        bucket.close_writer()
        assert len(bucket) == 0
        assert bucket.readback() == [("a", 1)]

    def test_flush_threshold_writes_before_close(self, tmp_path):
        path = str(tmp_path / "thresh.mrsb")
        bucket = FileBucket(path, retain=False, spill_buffer_pairs=2)
        bucket.addpair(("a", 1))
        bucket.addpair(("b", 2))  # hits the threshold, batch hits disk
        bucket.flush()
        size_after_two = os.path.getsize(path)
        assert size_after_two > 0
        bucket.addpair(("c", 3))
        bucket.close_writer()
        assert os.path.getsize(path) > size_after_two
        assert bucket.readback() == [("a", 1), ("b", 2), ("c", 3)]

    def test_collector_still_tracks_spill_order(self, tmp_path):
        bucket = FileBucket(str(tmp_path / "collected.mrsb"))
        add_key, add_pair = bucket.collector()
        for pair in [("b", 1), ("a", 2)]:
            add_key(key_to_bytes(pair[0]))
            add_pair(pair)
        bucket.close_writer()
        assert not bucket.url_sorted
        assert bucket.readback() == [("b", 1), ("a", 2)]

    def test_extend_records_scans_batch_order(self, tmp_path):
        in_order = [(key_to_bytes(k), (k, v)) for k, v in [("a", 1), ("b", 2)]]
        bucket = FileBucket(str(tmp_path / "batch.mrsb"))
        bucket.extend_records(in_order)
        bucket.close_writer()
        assert bucket.url_sorted

        shuffled = [(key_to_bytes(k), (k, v)) for k, v in [("b", 1), ("a", 2)]]
        other = FileBucket(str(tmp_path / "batch2.mrsb"))
        other.extend_records(shuffled)
        other.close_writer()
        assert not other.url_sorted

    def test_extend_records_checks_batch_boundary(self, tmp_path):
        """A sorted batch that starts before the previous batch's last
        key makes the stream unsorted."""
        bucket = FileBucket(str(tmp_path / "boundary.mrsb"))
        bucket.extend_records([(key_to_bytes("m"), ("m", 1))])
        bucket.extend_records([(key_to_bytes("a"), ("a", 2))])
        bucket.close_writer()
        assert not bucket.url_sorted

    def test_absorb_marks_unsorted_other_unsorted(self, tmp_path):
        staged = make_bucket([("b", 1), ("a", 2)])
        bucket = FileBucket(str(tmp_path / "absorbed.mrsb"), retain=False)
        bucket.absorb(staged)
        bucket.close_writer()
        assert not bucket.url_sorted
        assert bucket.readback() == [("b", 1), ("a", 2)]


class TestSidecarFileBucket:
    def test_user_file_and_sidecar_both_written(self, tmp_path):
        path = str(tmp_path / "out" / "result.txt")
        bucket = SidecarFileBucket(path, source=0, split=1)
        bucket.addpair(("word", 7))
        bucket.close_writer()
        assert open(path).read() == "word\t7\n"
        assert bucket.readback() == [("word", 7)]  # lossless sidecar
        assert bucket.url.endswith(".mrsb")

    def test_empty_sidecar(self, tmp_path):
        path = str(tmp_path / "empty.txt")
        bucket = SidecarFileBucket(path)
        bucket.open_writer()
        bucket.close_writer()
        assert os.path.exists(path)
        assert bucket.readback() == []


@given(
    st.lists(
        st.tuples(st.one_of(st.text(), st.integers()), st.integers()),
        max_size=60,
    )
)
def test_grouping_partitions_all_pairs(pairs):
    """Every pair lands in exactly one group; groups have distinct keys."""
    bucket = make_bucket(pairs)
    total = 0
    seen_keys = []
    for key, values in bucket.grouped():
        count = len(list(values))
        assert count >= 1
        total += count
        seen_keys.append(sort_key((key, None)))
    assert total == len(pairs)
    assert seen_keys == sorted(seen_keys)
    assert len(seen_keys) == len(set(seen_keys))


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


class TestSortedUrlMerge:
    """``run_reduce_task`` over URL-only, key-sorted ``str``-key files,
    read through ``BinReader`` and merged by the streaming heap merge."""

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

    def test_tie_break_prefers_lower_stream(self, tmp_path):
        # Equal keys in several streams: heapq.merge yields stream 0's
        # records first, and record order within a stream is preserved.
        streams = [[("dup", 100 + i) for i in range(3)] for _ in range(3)]
        buckets = self._make_buckets(tmp_path, streams)
        assert self._reduce(buckets) == [("dup", [100, 101, 102] * 3)]

    def test_value_larger_than_read_window(self, tmp_path):
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
