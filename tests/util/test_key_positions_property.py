"""The key map agrees with a dict.

``key_positions`` maps a column to positions in a key list through a
table (integer keys whose span fits the column) or a binary search
(every other case).  Either way each value must land where
``{key: position}`` puts it, ``-1`` when the dict has no such key, in
the narrowest signed dtype that holds the key count.  The cases cover
negative keys, gaps, a span equal to the column's length and one past
it, huge spans, narrow and unsigned columns, string keys and columns
of the other kind.  Through ``DimensionData.indices_of`` an unknown key
raises one ``DimensionError`` naming the column's first unknown value.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import DimensionData
from repro.errors import DimensionError
from repro.util.records import KEY_BLOCK_ROWS, key_positions, narrowest

INT_DTYPES = ("int64", "int32", "int16", "int8", "uint64", "uint32", "uint16", "uint8")
FAR = (10**12, -(10**12), 2**62)


def expected_positions(keys: list, column: np.ndarray) -> list[int]:
    position = {key: i for i, key in enumerate(keys)}
    return [position.get(value, -1) for value in column.tolist()]


def check(keys: list, column: np.ndarray) -> None:
    got = key_positions(np.array(keys), column)
    assert got.dtype == narrowest(len(keys), signed=True)
    assert got.tolist() == expected_positions(keys, column)
    unknown = [v for v, p in zip(column.tolist(), got.tolist()) if p < 0]
    dimension = DimensionData("d", keys)
    if unknown:
        message = f"fact tuple references unknown dimension key {unknown[0]!r}"
        with pytest.raises(DimensionError) as raised:
            dimension.indices_of(column)
        assert str(raised.value) == message
    else:
        assert dimension.indices_of(column).tolist() == got.tolist()


@st.composite
def int_cases(draw):
    """Distinct keys (negative ones, gaps, maybe one far away) in any
    order, and a column of keys and non-keys in some integer dtype
    whose length is often the keys' span or one short of it."""
    low = draw(st.integers(-60, 60))
    keys = draw(
        st.lists(st.integers(low, low + 40), min_size=1, max_size=30, unique=True)
    )
    span = max(keys) - min(keys) + 1
    length = draw(st.sampled_from([span, span - 1]) | st.integers(0, 3 * span))
    if draw(st.booleans()):  # a huge span: the search
        keys.insert(draw(st.integers(0, len(keys))), draw(st.sampled_from(FAR)))
    values = draw(
        st.lists(
            st.sampled_from(keys) | st.integers(low - 10, low + 50),
            min_size=length,
            max_size=length,
        )
    )
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    info = np.iinfo(dtype)
    values = [min(max(v, info.min), info.max) for v in values]
    return keys, np.array(values, dtype=dtype)


@settings(max_examples=200, deadline=None)
@given(int_cases())
def test_integer_keys_map_like_a_dict(case):
    check(*case)


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(st.text("abc", max_size=3), min_size=1, max_size=20, unique=True),
    extra=st.lists(st.text("abcd", max_size=3), max_size=20),
    data=st.data(),
)
def test_string_keys_map_like_a_dict(keys, extra, data):
    picked = data.draw(st.lists(st.sampled_from(keys), max_size=20))
    column = np.array(data.draw(st.permutations(picked + extra)) or [""])
    check(keys, column)


def test_a_column_of_the_other_kind_holds_no_key():
    check([1, 2, 3], np.array(["1", "2"]))
    check(["1", "2"], np.array([1, 2, 2, 1]))


def test_a_float_column_is_searched():
    check([4, 5, 7], np.array([5.0, 7.0, 6.0, 4.5]))


@pytest.mark.parametrize("count", [127, 128, 32767, 32768])
def test_positions_come_in_the_narrowest_signed_dtype(count):
    keys = list(range(-count, 0))[::-1]
    column = np.array([keys[-1], keys[0], -count - 1], dtype=np.int64)
    column = np.resize(column, count)  # span == column length: the table
    check(keys, column)


def test_a_column_of_several_blocks_reports_its_first_unknown_key():
    keys = list(range(-50, 50))
    column = np.tile(np.arange(-50, 50, dtype=np.int32), 3 * KEY_BLOCK_ROWS // 100)
    for at in (2 * KEY_BLOCK_ROWS + 7, KEY_BLOCK_ROWS - 1):
        column[at] = 50 + at % 3  # past the span, in a later block first
        check(keys, column)
