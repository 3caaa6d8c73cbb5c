"""The oracle against answers worked out by hand."""

import pytest

from benchmarks.e2e.oracle import Cells, digest, rows_equal


def tiny():
    """A 2x2x2x2 cube; hX1 = key parity name, hX2 = one member."""
    dimension_rows = {
        f"dim{d}": [(0, "AA0", "BB0"), (1, "AA1", "BB0")] for d in range(4)
    }
    fact_rows = [
        (0, 0, 0, 0, 5),
        (0, 1, 0, 1, 7),
        (1, 0, 1, 0, 11),
        (1, 1, 1, 1, 13),
        (1, 1, 0, 0, 2),
    ]
    return Cells((2, 2, 2, 2), (1, 1, 1, 1), dimension_rows, fact_rows)


def read(group_by, where=(), aggregate="sum"):
    return {
        "kind": "read",
        "group_by": [list(pair) for pair in group_by],
        "where": list(where),
        "aggregate": aggregate,
    }


def test_group_by_one_level():
    cells = tiny()
    assert cells.fold(read([("dim0", "h01")])) == [("AA0", 12), ("AA1", 26)]
    assert cells.fold(read([("dim0", "h01")], aggregate="count")) == [
        ("AA0", 2), ("AA1", 3),
    ]
    assert cells.fold(read([("dim0", "h01")], aggregate="min")) == [
        ("AA0", 5), ("AA1", 2),
    ]
    assert cells.fold(read([("dim0", "h01")], aggregate="max")) == [
        ("AA0", 7), ("AA1", 13),
    ]
    assert cells.fold(read([("dim0", "h02")], aggregate="avg")) == [
        ("BB0", 38 / 5),
    ]


def test_group_by_two_dims_and_key_level():
    cells = tiny()
    assert cells.fold(read([("dim0", "d0"), ("dim1", "h11")])) == [
        (0, "AA0", 5), (0, "AA1", 7), (1, "AA0", 11), (1, "AA1", 15),
    ]


def test_selections():
    cells = tiny()
    only_aa1 = {"dim": "dim1", "attr": "h11", "values": ["AA1"]}
    assert cells.fold(read([("dim0", "h01")], [only_aa1])) == [
        ("AA0", 7), ("AA1", 15),
    ]
    key_range = {"dim": "dim3", "attr": "d3", "low": 1, "high": 1}
    assert cells.fold(read([("dim2", "d2")], [key_range])) == [(0, 7), (1, 13)]
    nothing = {"dim": "dim1", "attr": "h11", "values": ["AA9"]}
    assert cells.fold(read([("dim0", "h01")], [nothing])) == []


def test_writes_are_applied_and_only_overwrite():
    cells = tiny()
    cells.write((1, 1, 0, 0), 20)
    assert cells.fold(read([("dim0", "h01")])) == [("AA0", 12), ("AA1", 44)]
    with pytest.raises(KeyError):
        cells.write((0, 0, 1, 1), 1)


def test_what_the_op_generators_ask():
    cells = tiny()
    assert cells.n_rows == 5
    assert cells.keys_of(2) == [1, 0, 1, 0]
    assert cells.value_of(2) == 11
    assert cells.chunk_of(2) == 0b1010


def test_rows_equal_and_digest():
    rows = [("AA0", 12), ("AA1", 26)]
    assert rows_equal(list(reversed(rows)), rows)
    assert not rows_equal(rows, [("AA0", 12), ("AA1", 27)])
    assert not rows_equal(rows[:1], rows)
    assert rows_equal([("AA0", 7.6)], [("AA0", 38 / 5)])
    assert digest(rows) == digest(list(reversed(rows)))
    assert digest(rows) != digest([("AA0", 12), ("AA1", 27)])
    assert digest([]) == (0,)
