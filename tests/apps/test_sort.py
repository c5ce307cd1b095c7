"""Distributed sort."""

from hypothesis import given, settings, strategies as st

from repro.apps.sort import DistributedSort, sorted_lines
from repro.core.main import run_program


class TestDistributedSort:
    def run_sort(self, lines, tmp_path, impl="serial"):
        path = tmp_path / "in.txt"
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return run_program(
            DistributedSort,
            [str(path), str(tmp_path / "out")],
            impl=impl,
            reduce_tasks=4,
        )

    def test_output_globally_sorted(self, tmp_path):
        lines = ["pear", "apple", "zebra", "mango", "apple", "fig"]
        prog = self.run_sort(lines, tmp_path)
        assert sorted_lines(prog) == sorted(lines)

    def test_duplicates_preserved(self, tmp_path):
        lines = ["b", "a", "b", "a", "b"]
        prog = self.run_sort(lines, tmp_path)
        assert sorted_lines(prog) == ["a", "a", "b", "b", "b"]

    def test_mockparallel_matches(self, tmp_path):
        lines = [f"key{i % 7:02d}" for i in range(40)]
        (tmp_path / "s").mkdir()
        (tmp_path / "m").mkdir()
        serial = self.run_sort(lines, tmp_path / "s")
        mock = self.run_sort(lines, tmp_path / "m", impl="mockparallel")
        assert sorted_lines(serial) == sorted_lines(mock) == sorted(lines)


@given(st.lists(st.text(alphabet="abcdefghij", min_size=1, max_size=8),
                min_size=1, max_size=30))
@settings(max_examples=20, deadline=None)
def test_sort_property(tmp_path_factory, lines):
    tmp = tmp_path_factory.mktemp("sort")
    path = tmp / "in.txt"
    path.write_text("\n".join(lines) + "\n")
    prog = run_program(
        DistributedSort, [str(path), str(tmp / "out")],
        impl="serial", reduce_tasks=3,
    )
    assert sorted_lines(prog) == sorted(lines)
