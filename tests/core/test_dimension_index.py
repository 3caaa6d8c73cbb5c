"""Tests for dimension key ↔ array-index maps and the key-list codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.builder import DimensionData
from repro.core.dimension_index import DimensionIndex, decode_keys, encode_keys
from repro.errors import DimensionError
from repro.storage import LargeObjectStore


@pytest.fixture
def aux(fm):
    return LargeObjectStore(fm, "aux")


class TestKeyListCodec:
    def test_int_keys(self):
        keys = [5, -3, 2**40]
        assert decode_keys(encode_keys(keys)) == keys

    def test_str_keys(self):
        keys = ["Madison", "Wisconsin", ""]
        assert decode_keys(encode_keys(keys)) == keys

    def test_mixed_keys(self):
        keys = [1, "a", 2, "b"]
        assert decode_keys(encode_keys(keys)) == keys

    def test_empty(self):
        assert decode_keys(encode_keys([])) == []

    def test_bad_type_rejected(self):
        with pytest.raises(DimensionError):
            encode_keys([1.5])
        with pytest.raises(DimensionError):
            encode_keys([True])

    def test_corrupt_kind_byte(self):
        payload = bytearray(encode_keys([1]))
        payload[4] = 99
        with pytest.raises(DimensionError):
            decode_keys(bytes(payload))


class TestDimensionIndex:
    def test_indices_follow_key_order(self, fm, aux):
        dim = DimensionIndex.build(fm, aux, "d0", [10, 30, 20])
        assert dim.index_of(10) == 0
        assert dim.index_of(30) == 1
        assert dim.index_of(20) == 2
        assert len(dim) == 3

    def test_key_of_inverts_index_of(self, fm, aux):
        keys = [f"p{i}" for i in range(50)]
        dim = DimensionIndex.build(fm, aux, "d0", keys)
        for i, key in enumerate(keys):
            assert dim.key_of(dim.index_of(key)) == key
        assert dim.keys() == keys

    def test_unknown_key(self, fm, aux):
        dim = DimensionIndex.build(fm, aux, "d0", [1, 2])
        with pytest.raises(DimensionError):
            dim.index_of(99)

    def test_index_out_of_range(self, fm, aux):
        dim = DimensionIndex.build(fm, aux, "d0", [1, 2])
        with pytest.raises(DimensionError):
            dim.key_of(2)

    def test_duplicate_keys_rejected(self, fm, aux):
        # checked where every load passes, before any file exists
        with pytest.raises(DimensionError, match="duplicate keys"):
            DimensionData("d0", [1, 1])

    def test_index_map_is_a_copy(self, fm, aux):
        dim = DimensionIndex.build(fm, aux, "d0", [1, 2])
        mapping = dim.index_map()
        mapping[1] = 99
        assert dim.index_of(1) == 0

    def test_reopen_from_storage(self, fm, aux):
        dim = DimensionIndex.build(fm, aux, "d0", ["x", "y", "z"])
        fm.pool.clear()
        reopened = DimensionIndex.open(fm, aux, "d0", dim.rev_oid)
        assert reopened.keys() == ["x", "y", "z"]
        assert reopened.index_of("y") == 1

    def test_footprint_positive(self, fm, aux):
        dim = DimensionIndex.build(fm, aux, "d0", list(range(100)))
        assert dim.footprint_bytes() > 0


@given(
    st.lists(
        st.one_of(st.integers(-(2**50), 2**50), st.text(max_size=12)),
        unique=True,
        max_size=60,
    )
)
def test_keylist_roundtrip_property(keys):
    assert decode_keys(encode_keys(keys)) == keys
