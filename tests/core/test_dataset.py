"""Dataset grid semantics: LocalData, FileData, computed datasets."""

import sys
import zipfile

import pytest

from repro.core import dataset as dataset_module
from repro.core.dataset import (
    FILE_TASK_BYTES,
    FILE_TASKS_MIN,
    BaseDataset,
    FileData,
    LocalData,
    file_groups,
    make_map_data,
    make_reduce_data,
    make_reducemap_data,
)
from repro.core.operations import MapOperation
from repro.io.bucket import Bucket


class TestBaseDataset:
    def test_bucket_get_or_create(self):
        ds = BaseDataset(splits=2)
        bucket = ds.bucket(0, 1)
        assert ds.bucket(0, 1) is bucket

    def test_buckets_for_split(self):
        ds = BaseDataset(splits=2)
        ds.bucket(0, 0)
        ds.bucket(1, 0)
        ds.bucket(0, 1)
        assert [b.source for b in ds.buckets_for_split(0)] == [0, 1]

    def test_buckets_for_split_ascends_by_source_whatever_the_insertion(self):
        ds = BaseDataset(splits=1)
        for source in (3, 0, 2, 1):
            ds.add_bucket(Bucket(source=source, split=0))
        assert [b.source for b in ds.buckets_for_split(0)] == [0, 1, 2, 3]
        ds.remove_source(2)
        assert [b.source for b in ds.buckets_for_split(0)] == [0, 1, 3]
        assert [b.source for b in ds.existing_buckets()] == [0, 1, 3]

    def test_rejects_negative_splits(self):
        with pytest.raises(ValueError):
            BaseDataset(splits=-1)

    def test_zero_splits_allowed_but_not_with_pairs(self):
        # splits=0 is a legal empty dataset (its dependents have no
        # tasks); partitioning actual pairs into it is not.
        assert BaseDataset(splits=0).splits == 0
        assert LocalData([], splits=0).complete
        with pytest.raises(ValueError):
            LocalData([("k", 1)], splits=0)

    def test_unique_ids(self):
        assert BaseDataset().id != BaseDataset().id

    def test_n_sources(self):
        ds = BaseDataset()
        assert ds.n_sources == 0
        ds.bucket(3, 0)
        assert ds.n_sources == 4

    def test_clear_keeps_urls(self):
        ds = BaseDataset()
        bucket = Bucket(0, 0, url="file:/x")
        bucket.addpair(("a", 1))
        ds.add_bucket(bucket)
        ds.clear()
        assert len(ds.existing_buckets()[0]) == 0
        assert ds.existing_buckets()[0].url == "file:/x"


class TestLocalData:
    def test_round_robin_default(self):
        ds = LocalData([("a", 1), ("b", 2), ("c", 3)], splits=2)
        assert ds.splitdata(0) == [("a", 1), ("c", 3)]
        assert ds.splitdata(1) == [("b", 2)]

    def test_custom_parter(self):
        ds = LocalData(
            [(0, "x"), (1, "y"), (2, "z")],
            splits=2,
            parter=lambda key, n: key % n,
        )
        assert ds.splitdata(0) == [(0, "x"), (2, "z")]

    def test_all_split_columns_exist_even_empty(self):
        ds = LocalData([("only", 1)], splits=4)
        for split in range(4):
            assert ds.buckets_for_split(split)

    def test_complete_on_creation(self):
        assert LocalData([("a", 1)]).complete

    def test_rejects_non_pairs(self):
        with pytest.raises(TypeError, match="item 1"):
            LocalData([("ok", 1), "not-a-pair"])

    def test_rejects_out_of_range_parter(self):
        with pytest.raises(ValueError, match="outside"):
            LocalData([("a", 1)], splits=2, parter=lambda k, n: 7)

    def test_data_returns_everything(self):
        pairs = [(i, i * i) for i in range(7)]
        ds = LocalData(pairs, splits=3)
        assert sorted(ds.data()) == pairs


class TestFileData:
    def test_one_bucket_per_file(self, text_file):
        ds = FileData([text_file, text_file])
        assert ds.splits == 2
        assert ds.complete

    def test_urls_get_file_scheme(self, text_file):
        ds = FileData([text_file])
        assert ds.existing_buckets()[0].url == "file:" + text_file

    def test_existing_scheme_preserved(self):
        ds = FileData(["http://host:1/x.mrsb"])
        assert ds.existing_buckets()[0].url == "http://host:1/x.mrsb"

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            FileData([])

    def test_fetchall_loads_lines(self, text_file):
        ds = FileData([text_file])
        ds.fetchall()
        pairs = ds.data()
        assert pairs[0] == (0, "the quick brown fox")

    def test_grid_is_source_file_split_group(self, text_file):
        ds = FileData([text_file] * 40)
        assert ds.splits == FILE_TASKS_MIN
        buckets = ds.existing_buckets()
        assert [b.source for b in buckets] == list(range(40))
        columns = [ds.buckets_for_split(g) for g in range(ds.splits)]
        assert [b for column in columns for b in column] == buckets

    def test_explicit_one_task_per_file(self, text_file):
        ds = FileData([text_file] * 20, tasks=20)
        assert ds.splits == 20
        assert [b.split for b in ds.existing_buckets()] == list(range(20))

    def test_split_columns_read_without_scanning_the_grid(self, text_file):
        """Every map task of a 20,000-file input reads its column: the
        Python lines run in ``core/dataset.py`` stay linear in the file
        count (a grid scan per column is quadratic, ~4e8 here)."""
        n = 20_000
        ds = FileData([text_file] * n)
        budget = 4 * n + 100 * ds.splits
        executed = 0

        def trace(frame, event, arg):
            if frame.f_code.co_filename != dataset_module.__file__:
                return None

            def count(frame, event, arg):
                nonlocal executed
                executed += 1
                if executed > budget:
                    raise AssertionError(f"over {budget} lines executed")
                return count

            return count

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            columns = [ds.buckets_for_split(g) for g in range(ds.splits)]
        finally:
            sys.settrace(previous)
        assert [b for column in columns for b in column] == ds.existing_buckets()


class TestFileGroups:
    """The one rule that sizes a file input's map tasks."""

    @staticmethod
    def files(tmp_path, sizes):
        paths = []
        for index, size in enumerate(sizes):
            path = tmp_path / f"f{index:03d}.txt"
            path.write_bytes(b"x" * size)
            paths.append(str(path))
        return paths

    def test_small_input_makes_the_minimum(self, tmp_path):
        groups = file_groups(self.files(tmp_path, [100] * 300))
        assert groups == sorted(groups)
        assert set(groups) == set(range(FILE_TASKS_MIN))
        assert all(groups.count(g) in (18, 19) for g in set(groups))

    def test_fewer_files_than_the_minimum_one_task_each(self, tmp_path):
        assert file_groups(self.files(tmp_path, [10, 5000, 0])) == [0, 1, 2]

    def test_groups_balance_bytes(self, tmp_path):
        sizes = [4000] + [100] * 40 + [4000]
        groups = file_groups(self.files(tmp_path, sizes), tasks=4)
        weight = [0] * 4
        for group, size in zip(groups, sizes):
            weight[group] += size
        assert groups[0] == 0 and groups[-1] == 3
        assert groups == sorted(groups) and set(groups) == {0, 1, 2, 3}
        assert weight == [4000, 2000, 2000, 4000]

    def test_bytes_past_the_target_add_tasks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset_module, "FILE_TASK_BYTES", 1000)
        groups = file_groups(self.files(tmp_path, [100] * 300))
        assert groups[-1] + 1 == 30

    def test_unsized_urls_count_as_a_whole_task(self):
        urls = [f"http://host:1/{i}.txt" for i in range(40)]
        assert file_groups(urls) == list(range(40))
        assert dataset_module._url_bytes(urls[0]) == FILE_TASK_BYTES

    def test_zip_counts_its_uncompressed_members(self, tmp_path):
        archive = tmp_path / "book.zip"
        with zipfile.ZipFile(archive, "w", zipfile.ZIP_DEFLATED) as out:
            out.writestr("book/a.txt", b"the " * 50_000)
            out.writestr("book/b.txt", b"cat " * 25_000)
        assert archive.stat().st_size < 10_000
        assert dataset_module._url_bytes("file:" + str(archive)) == 300_000

    def test_unreadable_zip_counts_as_a_whole_task(self, tmp_path):
        archive = tmp_path / "broken.zip"
        archive.write_bytes(b"not a zip")
        assert dataset_module._url_bytes(str(archive)) == FILE_TASK_BYTES

    def test_same_layout_from_plain_paths_and_file_urls(self, tmp_path):
        paths = self.files(tmp_path, [10 * i for i in range(1, 30)])
        assert file_groups(paths) == file_groups(["file:" + p for p in paths])


class TestComputedFactories:
    def test_map_data_tasks_follow_input_splits(self):
        source = LocalData([(i, i) for i in range(6)], splits=3)
        ds = make_map_data(source, "map", splits=2)
        assert ds.ntasks == 3
        assert ds.splits == 2
        assert ds.operation.map_name == "map"
        assert not ds.complete

    def test_callable_names_extracted(self):
        class Prog:
            def my_map(self):
                pass

        source = LocalData([(0, 0)])
        ds = make_map_data(source, Prog.my_map, splits=1)
        assert ds.operation.map_name == "my_map"

    def test_reduce_data(self):
        source = LocalData([(0, 0)], splits=2)
        ds = make_reduce_data(source, "reduce", splits=5)
        assert ds.operation.reduce_name == "reduce"
        assert ds.ntasks == 2
        assert ds.splits == 5

    def test_reducemap_data(self):
        source = LocalData([(0, 0)])
        ds = make_reducemap_data(source, "reduce", "map", splits=2)
        assert ds.operation.reduce_name == "reduce"
        assert ds.operation.map_name == "map"

    def test_affinity_group_defaults_to_id(self):
        ds = BaseDataset()
        assert ds.affinity_group == ds.id

    def test_id_prefixes_reflect_kind(self):
        source = LocalData([(0, 0)])
        assert make_map_data(source, "m", splits=1).id.startswith("map")
        assert make_reduce_data(source, "r", splits=1).id.startswith("reduce")
