"""Partition function contracts: range, determinism, coverage."""

import pytest
from hypothesis import given, strategies as st

from repro.io.partition import (
    first_byte_partition,
    hash_partition,
    hash_partition_bytes,
    hash_partition_splits,
    mod_partition,
)
from repro.util.hashing import key_to_bytes


class TestHashPartition:
    def test_single_split_always_zero(self):
        assert hash_partition("anything", 1) == 0

    def test_rejects_zero_splits(self):
        with pytest.raises(ValueError):
            hash_partition("k", 0)

    def test_rejects_negative_splits(self):
        with pytest.raises(ValueError):
            hash_partition("k", -3)

    def test_covers_all_splits_eventually(self):
        n = 8
        hit = {hash_partition(f"key{i}", n) for i in range(500)}
        assert hit == set(range(n))

    def test_balanced_ish(self):
        n = 4
        counts = [0] * n
        for i in range(4000):
            counts[hash_partition(i, n)] += 1
        assert min(counts) > 700  # each split gets a fair share

    def test_splits_match_scalar_partitioner(self):
        keys = [key_to_bytes(k) for k in ["a", "bb", 3, (4, "x"), b"raw", 2.5]]
        keys = keys * 20
        for n_splits in (1, 2, 7, 64):
            got = list(hash_partition_splits(keys, n_splits))
            want = [hash_partition_bytes(kb, n_splits) for kb in keys]
            assert got == want


class TestModPartition:
    def test_identity_for_small_ints(self):
        assert mod_partition(3, 10) == 3

    def test_wraps(self):
        assert mod_partition(13, 10) == 3

    def test_string_digits(self):
        assert mod_partition("7", 5) == 2

    def test_rejects_zero_splits(self):
        with pytest.raises(ValueError):
            mod_partition(1, 0)


class TestFirstBytePartition:
    def test_ascii_ordering_is_monotone(self):
        n = 4
        splits = [first_byte_partition(w, n) for w in ["apple", "mango", "zebra"]]
        assert splits == sorted(splits)

    def test_empty_key(self):
        assert first_byte_partition("", 4) == 0

    def test_bytes_key(self):
        assert 0 <= first_byte_partition(b"\xff", 4) < 4

    def test_non_string_key_coerced(self):
        assert 0 <= first_byte_partition(123, 4) < 4

    def test_rejects_zero_splits(self):
        with pytest.raises(ValueError):
            first_byte_partition("a", 0)


@given(
    st.one_of(st.text(), st.integers(), st.binary()),
    st.integers(min_value=1, max_value=64),
)
def test_hash_partition_in_range(key, n):
    assert 0 <= hash_partition(key, n) < n


@given(st.one_of(st.text(), st.integers()), st.integers(min_value=1, max_value=64))
def test_hash_partition_deterministic(key, n):
    assert hash_partition(key, n) == hash_partition(key, n)


@given(st.text(), st.integers(min_value=1, max_value=64))
def test_first_byte_partition_in_range(key, n):
    assert 0 <= first_byte_partition(key, n) < n


@given(st.integers(), st.integers(min_value=1, max_value=64))
def test_mod_partition_in_range(key, n):
    assert 0 <= mod_partition(key, n) < n
