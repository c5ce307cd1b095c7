"""Task execution semantics: map, reduce, reducemap, combiner, errors."""

import os

import pytest

from repro.core.dataset import (
    LocalData,
    make_map_data,
    make_reduce_data,
    make_reducemap_data,
)
from repro.core.operations import MapOperation, ReduceMapOperation, ReduceOperation
from repro.core.options import default_options
from repro.core.program import MapReduce
from repro.io.bucket import Bucket
from repro.io.partition import hash_partition
from repro.runtime import taskrunner


class Wordy(MapReduce):
    combine_calls = 0

    def map(self, key, value):
        for word in value.split():
            yield (word, 1)

    def reduce(self, key, values):
        yield sum(values)

    def counting_combine(self, key, values):
        type(self).combine_calls += 1
        yield sum(values)

    def swap_map(self, key, value):
        yield (value, key)

    def bad_pairs_map(self, key, value):
        yield "not-a-pair"

    def bad_parter(self, key, n_splits):
        return n_splits + 5

    def exploding_map(self, key, value):
        raise ZeroDivisionError("boom")


@pytest.fixture
def program():
    Wordy.combine_calls = 0
    return Wordy(default_options(), [])


def input_bucket(pairs):
    bucket = Bucket(0, 0)
    for pair in pairs:
        bucket.addpair(pair)
    return bucket


class TestMapTask:
    def test_basic_map_and_partition(self, program):
        op = MapOperation("map", splits=2)
        out = taskrunner.run_map_task(
            program,
            op,
            [(0, "a b a")],
            taskrunner.memory_bucket_factory(0),
        )
        assert len(out) == 2
        all_pairs = sorted(p for b in out for p in b)
        assert all_pairs == [("a", 1), ("a", 1), ("b", 1)]

    def test_same_key_same_bucket(self, program):
        op = MapOperation("map", splits=4)
        out = taskrunner.run_map_task(
            program, op, [(0, "x x x")], taskrunner.memory_bucket_factory(0)
        )
        non_empty = [b for b in out if len(b)]
        assert len(non_empty) == 1

    def test_combiner_shrinks_output(self, program):
        op = MapOperation("map", splits=1, combine_name="counting_combine")
        out = taskrunner.run_map_task(
            program, op, [(0, "w w w w")], taskrunner.memory_bucket_factory(0)
        )
        assert list(out[0]) == [("w", 4)]
        assert Wordy.combine_calls == 1

    def test_map_yielding_non_pair_rejected(self, program):
        op = MapOperation("bad_pairs_map", splits=1)
        with pytest.raises(taskrunner.TaskError, match="yield"):
            taskrunner.run_map_task(
                program, op, [(0, "x")], taskrunner.memory_bucket_factory(0)
            )

    def test_out_of_range_partition_rejected(self, program):
        op = MapOperation("map", splits=2, parter_name="bad_parter")
        with pytest.raises(taskrunner.TaskError, match="outside"):
            taskrunner.run_map_task(
                program, op, [(0, "x")], taskrunner.memory_bucket_factory(0)
            )


class Fanning(MapReduce):
    """Default partitioner; map and reducemap emit many distinct keys."""

    def map(self, key, value):
        for word in value.split():
            yield (word, 1)

    def reduce(self, key, values):
        yield sum(values)

    def fan_map(self, key, value):
        for j in range(3):
            yield (f"{key}/{j}", value)


class HashWrapped(Fanning):
    """The same placement behind an override, which drops the
    ``partition_bytes`` attribute and is called once per record."""

    def partition(self, key, n_splits):
        return hash_partition(key, n_splits)


class TestEmitPath:
    @pytest.mark.parametrize("kind", ["map", "reducemap"])
    def test_default_partition_emits_through_batch_emitter(
        self, tmp_path, monkeypatch, kind
    ):
        calls = []
        batch_emitter = taskrunner.make_hash_emitter

        def spy(staging, n_splits):
            calls.append(n_splits)
            return batch_emitter(staging, n_splits)

        monkeypatch.setattr(taskrunner, "make_hash_emitter", spy)
        words = " ".join(f"w{i % 997}" for i in range(20000))
        files = {}
        for name, cls in (("batch", Fanning), ("per_record", HashWrapped)):
            program = cls(default_options(), [])
            factory = taskrunner.file_bucket_factory(str(tmp_path), name, 0)
            if kind == "map":
                op = MapOperation("map", splits=4)
                out = taskrunner.run_map_task(program, op, [(0, words)], factory)
            else:
                op = ReduceMapOperation("reduce", "fan_map", splits=4)
                source = input_bucket([(w, 1) for w in words.split()])
                out = taskrunner.run_reducemap_task(program, op, [source], factory)
            files[name] = [open(b.path, "rb").read() for b in out]
            # Only the default partitioner reaches the batch emitter.
            assert calls == [4]
        assert files["batch"] == files["per_record"]
        assert all(len(data) > 100 for data in files["batch"])


class TestReduceTask:
    def test_groups_merged_across_buckets(self, program):
        op = ReduceOperation("reduce", splits=1)
        b1 = input_bucket([("a", 1), ("b", 1)])
        b2 = input_bucket([("a", 2)])
        out = taskrunner.run_reduce_task(
            program, op, [b1, b2], taskrunner.memory_bucket_factory(0)
        )
        assert sorted(out[0]) == [("a", 3), ("b", 1)]

    def test_reduce_sees_sorted_keys(self, program):
        seen = []

        class Spy(Wordy):
            def reduce(self, key, values):
                seen.append(key)
                yield sum(values)

        spy = Spy(default_options(), [])
        op = ReduceOperation("reduce", splits=1)
        bucket = input_bucket([("z", 1), ("a", 1), ("m", 1)])
        taskrunner.run_reduce_task(
            spy, op, [bucket], taskrunner.memory_bucket_factory(0)
        )
        assert seen == ["a", "m", "z"]


class TestExecuteTask:
    def run_one(self, program, dataset, input_dataset, task_index=0):
        buckets = input_dataset.buckets_for_split(task_index)
        return taskrunner.execute_task(program, dataset, task_index, buckets)

    def test_dispatch_map(self, program):
        source = LocalData([(0, "a b")])
        ds = make_map_data(source, "map", splits=1)
        out = self.run_one(program, ds, source)
        assert sorted(out[0]) == [("a", 1), ("b", 1)]

    def test_dispatch_reducemap(self, program):
        source = LocalData([("k", 1), ("k", 2)])
        ds = make_reducemap_data(source, "reduce", "swap_map", splits=1)
        out = self.run_one(program, ds, source)
        assert list(out[0]) == [(3, "k")]

    def test_user_exception_wrapped_with_context(self, program):
        source = LocalData([(0, "x")])
        ds = make_map_data(source, "exploding_map", splits=1)
        with pytest.raises(taskrunner.TaskError) as excinfo:
            self.run_one(program, ds, source)
        assert "exploding_map" in str(excinfo.value) or "task 0" in str(excinfo.value)
        assert isinstance(excinfo.value.cause, ZeroDivisionError)


class TestFileBucketFactory:
    def test_writes_files_with_expected_names(self, program, tmp_path):
        factory = taskrunner.file_bucket_factory(
            str(tmp_path), "ds1", source=2, ext="mrsb"
        )
        op = MapOperation("map", splits=2)
        out = taskrunner.run_map_task(program, op, [(0, "a b")], factory)
        names = sorted(os.listdir(tmp_path))
        assert names == ["ds1_2_0.mrsb", "ds1_2_1.mrsb"]
        assert all(b.url.startswith("file:") for b in out)

    def test_empty_buckets_still_create_files(self, program, tmp_path):
        factory = taskrunner.file_bucket_factory(str(tmp_path), "ds2", 0)
        op = MapOperation("map", splits=3)
        taskrunner.run_map_task(program, op, [], factory)
        assert len(os.listdir(tmp_path)) == 3

    def test_sidecar_for_lossy_user_format(self, program, tmp_path):
        factory = taskrunner.file_bucket_factory(
            str(tmp_path), "out", 0, ext="txt", sidecar=True
        )
        op = MapOperation("map", splits=1)
        out = taskrunner.run_map_task(program, op, [(0, "hi")], factory)
        assert out[0].url.endswith(".mrsb")
        visible = [n for n in os.listdir(tmp_path) if not n.startswith(".")]
        assert visible == ["out_0_0.txt"]

    def test_no_sidecar_for_lossless_format(self, program, tmp_path):
        factory = taskrunner.file_bucket_factory(
            str(tmp_path), "out", 0, ext="mrsb", sidecar=True
        )
        op = MapOperation("map", splits=1)
        out = taskrunner.run_map_task(program, op, [(0, "hi")], factory)
        assert os.listdir(tmp_path) == ["out_0_0.mrsb"]


class TestBucketsFromUrls:
    def test_fetch_and_index(self, tmp_path):
        from repro.io.bucket import FileBucket, bucket_pairs

        path = str(tmp_path / "b.mrsb")
        fb = FileBucket(path)
        fb.addpair(("x", 1))
        fb.close_writer()
        buckets = taskrunner.buckets_from_urls(
            ["file:" + path], split=3, sorted_flags=[True]
        )
        assert buckets[0].split == 3
        assert buckets[0].url_sorted
        # Nothing is read until the task streams the bucket.
        assert len(buckets[0]) == 0
        assert list(bucket_pairs(buckets[0])) == [("x", 1)]
