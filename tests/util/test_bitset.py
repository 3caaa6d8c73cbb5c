"""Unit and property tests for the packed bitset."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BitmapError
from repro.util import Bitset


class TestScalarOps:
    def test_new_bitset_is_all_zero(self):
        bits = Bitset(130)
        assert bits.count() == 0
        assert not bits.any()
        assert len(bits) == 130

    def test_set_get_clear_roundtrip(self):
        bits = Bitset(100)
        bits.set(0)
        bits.set(63)
        bits.set(64)
        bits.set(99)
        assert bits.get(0) and bits.get(63) and bits.get(64) and bits.get(99)
        assert not bits.get(1)
        bits.clear(63)
        assert not bits.get(63)
        assert bits.count() == 3

    def test_getitem_alias(self):
        bits = Bitset(10)
        bits.set(3)
        assert bits[3]
        assert not bits[4]

    def test_out_of_range_raises(self):
        bits = Bitset(10)
        with pytest.raises(BitmapError):
            bits.set(10)
        with pytest.raises(BitmapError):
            bits.get(-1)

    def test_negative_length_raises(self):
        with pytest.raises(BitmapError):
            Bitset(-1)

    def test_zero_length_bitset(self):
        bits = Bitset(0)
        assert bits.count() == 0
        assert list(bits) == []
        assert bits.set_positions().size == 0


class TestConstruction:
    def test_from_indices(self):
        bits = Bitset.from_indices(200, [5, 64, 199])
        assert bits.set_positions().tolist() == [5, 64, 199]

    def test_from_indices_empty(self):
        bits = Bitset.from_indices(50, [])
        assert bits.count() == 0

    def test_from_indices_out_of_range(self):
        with pytest.raises(BitmapError):
            Bitset.from_indices(10, [10])

    def test_from_indices_duplicates_set_once(self):
        bits = Bitset.from_indices(10, [3, 3, 3])
        assert bits.count() == 1

    def test_ones_masks_tail(self):
        bits = Bitset.ones(70)
        assert bits.count() == 70
        # the tail bits beyond length must be zero so count stays exact
        assert (~bits).count() == 0

    def test_bytes_roundtrip(self):
        bits = Bitset.from_indices(150, [0, 77, 149])
        again = Bitset.from_bytes(150, bits.to_bytes())
        assert again == bits

    def test_from_bytes_wrong_length(self):
        with pytest.raises(BitmapError):
            Bitset.from_bytes(100, b"\x00" * 3)


class TestAlgebra:
    def test_and_or_xor(self):
        a = Bitset.from_indices(100, [1, 2, 3, 64])
        b = Bitset.from_indices(100, [2, 3, 4, 65])
        assert (a & b).set_positions().tolist() == [2, 3]
        assert (a | b).set_positions().tolist() == [1, 2, 3, 4, 64, 65]
        assert (a ^ b).set_positions().tolist() == [1, 4, 64, 65]

    def test_invert_respects_length(self):
        a = Bitset.from_indices(66, [0, 65])
        inv = ~a
        assert inv.count() == 64
        assert not inv.get(0) and not inv.get(65)

    def test_inplace_and_or(self):
        a = Bitset.from_indices(80, [1, 2, 3])
        b = Bitset.from_indices(80, [2, 3, 4])
        a.iand(b)
        assert a.set_positions().tolist() == [2, 3]
        a.ior(Bitset.from_indices(80, [79]))
        assert a.set_positions().tolist() == [2, 3, 79]

    def test_length_mismatch_raises(self):
        with pytest.raises(BitmapError):
            Bitset(10) & Bitset(11)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Bitset(4))


@given(
    st.integers(min_value=1, max_value=300).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(min_value=0, max_value=n - 1), unique=True),
            st.lists(st.integers(min_value=0, max_value=n - 1), unique=True),
        )
    )
)
def test_algebra_matches_python_sets(params):
    n, xs, ys = params
    a, b = Bitset.from_indices(n, xs), Bitset.from_indices(n, ys)
    sa, sb = set(xs), set(ys)
    assert set((a & b).set_positions().tolist()) == sa & sb
    assert set((a | b).set_positions().tolist()) == sa | sb
    assert set((a ^ b).set_positions().tolist()) == sa ^ sb
    assert set((~a).set_positions().tolist()) == set(range(n)) - sa
    assert a.count() == len(sa)


@given(
    st.integers(min_value=0, max_value=500),
)
def test_ones_count_equals_length(n):
    assert Bitset.ones(n).count() == n


@given(
    st.integers(min_value=1, max_value=200).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(min_value=0, max_value=n - 1), unique=True),
        )
    )
)
def test_serialization_roundtrip(params):
    n, xs = params
    bits = Bitset.from_indices(n, xs)
    assert Bitset.from_bytes(n, bits.to_bytes()) == bits


def test_set_positions_returns_int64():
    bits = Bitset.from_indices(10, [1, 9])
    assert bits.set_positions().dtype == np.int64


def unpack_everything(bits: Bitset) -> np.ndarray:
    """The reference enumeration: every word unpacked, whatever is set."""
    unpacked = np.unpackbits(
        np.frombuffer(bits.to_bytes(), dtype=np.uint8), bitorder="little"
    )
    return np.flatnonzero(unpacked[: len(bits)]).astype(np.int64)


@st.composite
def bitsets(draw):
    """Empty, all-ones and random-density bitsets, of lengths on and
    off the 64-bit word boundary; some with their set bits clustered in
    a few words, so both sides of the sparse-word rule are drawn."""
    length = draw(
        st.one_of(
            st.sampled_from([0, 1, 63, 64, 65, 128, 640, 641]),
            st.integers(0, 3000),
        )
    )
    kind = draw(st.sampled_from(["empty", "ones", "density", "clustered"]))
    if kind == "empty" or length == 0:
        return Bitset(length)
    if kind == "ones":
        return Bitset.ones(length)
    if kind == "density":
        density = draw(st.sampled_from([0.001, 0.01, 0.1, 0.5, 0.9, 1.0]))
        seed = draw(st.integers(0, 2**32 - 1))
        mask = np.random.default_rng(seed).random(length) < density
        return Bitset.from_mask(mask)
    return Bitset.from_indices(
        length, draw(st.sets(st.integers(0, length - 1), max_size=200))
    )


@settings(max_examples=300, deadline=None)
@given(bitsets())
def test_set_positions_equals_unpacking_every_word(bits):
    positions = bits.set_positions()
    expected = unpack_everything(bits)
    assert positions.dtype == np.int64
    assert positions.tolist() == expected.tolist()
    assert len(positions) == bits.count()


def test_set_positions_at_the_sparse_word_boundary():
    # exactly half the words nonzero takes the word-skipping side, one
    # more the full unpack; both name the same bits
    for nonzero_words in (5, 6):
        positions = [64 * w + w for w in range(nonzero_words)]
        bits = Bitset.from_indices(640, positions)
        assert bits.set_positions().tolist() == positions
    # bits past the length in the last word (a raw payload) are not named
    words = np.zeros(11, dtype=np.uint64)
    words[-1] = np.uint64(0xFFFFFFFFFFFFFFFF)
    raw = Bitset(641, words)
    assert raw.set_positions().tolist() == [640] == unpack_everything(raw).tolist()
