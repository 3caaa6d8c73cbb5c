"""Tests for the B-tree selection baseline."""

import pytest

from repro.errors import QueryError
from repro.relational import bitmap_select_consolidate, btree_select_consolidate
from repro.util.stats import Counters

from .conftest import h1, join_specs


def fact_btree(db, d):
    return db.create_btree_index(f"fact.d{d}.idx", "fact", f"d{d}")


def keys_matching(dims, d, value):
    """Dimension keys whose h-1 attribute equals ``value``."""
    return [
        row[0] for row in dims[d].scan() if h1(d, row[0]) == value
    ]


class TestBTreeSelect:
    def test_matches_bitmap_algorithm(self, star_db):
        db, dims, fact, fact_rows = star_db
        trees = [fact_btree(db, d) for d in range(3)]
        selected = [h1(0, 0), h1(1, 1), h1(2, 0)]
        selections = [
            (trees[d], keys_matching(dims, d, selected[d])) for d in range(3)
        ]
        rows = btree_select_consolidate(fact, join_specs(dims), selections, "volume")

        key_pos = [fact.schema.index_of(f"d{d}") for d in range(3)]
        bitmaps = [
            db.create_bitmap_index(
                f"bm{d}",
                len(fact),
                (h1(d, row[key_pos[d]]) for row in fact.scan()),
            )
            for d in range(3)
        ]
        expected = bitmap_select_consolidate(
            fact,
            join_specs(dims),
            [(bitmaps[d], [selected[d]]) for d in range(3)],
            "volume",
        )
        assert rows == expected

    def test_empty_intersection(self, star_db):
        db, dims, fact, _ = star_db
        tree = fact_btree(db, 0)
        rows = btree_select_consolidate(
            fact, join_specs(dims), [(tree, [9999])], "volume"
        )
        assert rows == []

    def test_counters(self, star_db):
        db, dims, fact, _ = star_db
        tree = fact_btree(db, 0)
        counters = Counters()
        keys = keys_matching(dims, 0, h1(0, 0))
        btree_select_consolidate(
            fact, join_specs(dims), [(tree, keys)], "volume", counters=counters
        )
        assert counters.get("btree_probes") == len(keys)
        assert counters.get("selected_tuples") > 0

    def test_requires_a_selection(self, star_db):
        _, dims, fact, _ = star_db
        with pytest.raises(QueryError):
            btree_select_consolidate(fact, join_specs(dims), [], "volume")

    def test_requires_group_dimensions(self, star_db):
        db, dims, fact, _ = star_db
        tree = fact_btree(db, 0)
        with pytest.raises(QueryError):
            btree_select_consolidate(fact, [], [(tree, [0])], "volume")
