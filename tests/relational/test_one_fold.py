"""Every relational operator joins, skips and folds a fact tuple alike.

A fact tuple whose foreign key has no dimension row joins nothing: each
operator skips it and counts it in ``dangling_fact_tuples``, and a
tuple a selection already dropped is not counted.  Integer measures
fold in ``int64`` whatever their field's width.
"""

import pytest

from repro.relational import (
    Database,
    DimensionJoinSpec,
    Schema,
    bitmap_select_consolidate,
    btree_select_consolidate,
    mbtree_select_consolidate,
    star_join_consolidate,
)
from repro.util.stats import Counters


def small_star(fact_rows):
    """A 3-row dimension (keys 0..2) and a fact file of ``fact_rows``."""
    db = Database(page_size=1024, pool_bytes=128 * 1024)
    dim = db.create_heap_table("dim", Schema([("d0", "int32"), ("h", "str:4")]))
    dim.insert_many([(0, "a"), (1, "b"), (2, "a")])
    fact = db.create_fact_table(
        "fact", Schema([("d0", "int32"), ("volume", "int32")])
    )
    fact.append_many(fact_rows)
    return db, fact, [DimensionJoinSpec(dim, "d0", "d0", "h")]


def run(operator, db, fact, specs, keys, counters):
    """Run ``operator`` selecting the tuples whose key is in ``keys``."""
    if operator == "starjoin":
        return star_join_consolidate(
            fact, specs, "volume", counters=counters, key_filters={"d0": keys}
        )
    if operator == "bitmap":
        index = db.create_bitmap_index(
            "fact.d0.bm", len(fact), (row[0] for row in fact.scan())
        )
        return bitmap_select_consolidate(
            fact, specs, [(index, keys)], "volume", counters=counters
        )
    if operator == "btree":
        tree = db.create_btree_index("fact.d0.idx", "fact", "d0")
        return btree_select_consolidate(
            fact, specs, [(tree, keys)], "volume", counters=counters
        )
    tree = db.create_composite_btree_index("fact.mb", "fact", ["d0"])
    return mbtree_select_consolidate(
        fact, specs, tree, [keys], "volume", counters=counters
    )


OPERATORS = ("starjoin", "bitmap", "btree", "mbtree")


@pytest.mark.parametrize("operator", OPERATORS)
class TestDanglingKeys:
    def test_dangling_tuple_is_skipped_and_counted(self, operator):
        db, fact, specs = small_star([(0, 5), (7, 6), (1, 2)])
        counters = Counters()
        rows = run(operator, db, fact, specs, [0, 1, 7], counters)
        assert rows == [("a", 5), ("b", 2)]
        assert counters.get("dangling_fact_tuples") == 1

    def test_filtered_out_tuple_is_not_counted(self, operator):
        db, fact, specs = small_star([(0, 5), (7, 6), (1, 2)])
        counters = Counters()
        rows = run(operator, db, fact, specs, [0, 1], counters)
        assert rows == [("a", 5), ("b", 2)]
        assert counters.get("dangling_fact_tuples") == 0


@pytest.mark.parametrize("operator", OPERATORS)
def test_int32_measure_sums_past_2_pow_31(operator):
    big = 2**31 - 1
    db, fact, specs = small_star([(0, big), (2, big), (1, 3), (0, big)])
    rows = run(operator, db, fact, specs, [0, 1, 2], Counters())
    assert rows == [("a", 3 * big), ("b", 3)]


@pytest.mark.parametrize("operator", OPERATORS)
def test_a_selection_of_nothing_folds_nothing(operator):
    db, fact, specs = small_star([(0, 5), (7, 6), (1, 2)])
    counters = Counters()
    assert run(operator, db, fact, specs, [5], counters) == []
    assert counters.get("dangling_fact_tuples") == 0
