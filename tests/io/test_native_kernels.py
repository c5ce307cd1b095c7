"""The benchmark's C shuffle probes (``repro.native.kernels``).

No job calls these kernels; ``bench/layers.py`` times them.  While they
exist, these tests pin two things: bit-level parity of each primitive
(CRC/hash/scatter/sort/group/frame/scan) against the pure-Python loop
the runtime actually runs, and graceful behaviour of the compile/cache
layer (``CC`` honoured, ``auto`` silent, ``off`` never compiles).

Kernel-parity tests skip when no compiler is available; the compile
layer tests run everywhere.
"""

import os
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.io.bucket import Bucket, FileBucket
from repro.io.partition import hash_partition_bytes
from repro.native import compile as native_compile
from repro.native import kernels
from repro.native.compile import CompilerUnavailable
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
        bucket = Bucket()
        for pair in raw:
            bucket.addpair(pair)
        keys = [key_to_bytes(k) for k, _ in raw]
        ngroups, order, bounds = native.group_scatter(keys, sort_groups=True)
        got = [
            (
                keys[order[bounds[g]]],
                raw[order[bounds[g]]][0],
                [raw[i][1] for i in order[bounds[g]:bounds[g + 1]]],
            )
            for g in range(ngroups)
        ]
        assert got == bucket.sorted_grouped_lists()

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
        finally:
            kernels.set_mode("auto")

    def test_off_mode_never_compiles(self):
        kernels.set_mode("off")
        try:
            assert kernels.get() is None
        finally:
            kernels.set_mode("auto")

    def test_pure_fallback_still_shuffles(self, monkeypatch, tmp_path):
        # With a broken compiler the whole write/sort/read pipeline
        # still runs and stays correct: it never asks for the kernels.
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
