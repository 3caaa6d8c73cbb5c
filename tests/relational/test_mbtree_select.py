"""Tests for the skipping multi-attribute B-tree baseline."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import run_cold
from repro.index import BTree
from repro.relational import skip_scan
from repro.storage import BufferPool, FileManager, SimulatedDisk
from repro.util.stats import Counters


def make_fm(page_size=512):
    disk = SimulatedDisk(page_size=page_size)
    return FileManager(BufferPool(disk, capacity_bytes=256 * page_size))


def composite_tree(fm, keys):
    return BTree.bulk_load(fm, "mb", [(k, i) for i, k in enumerate(keys)])


class TestTupleKeys:
    def test_tuple_key_roundtrip(self):
        fm = make_fm()
        tree = BTree.create(fm, "t")
        tree.insert((1, 2, 3), 100)
        tree.insert((1, 2, 4), 200)
        assert tree.search((1, 2, 3)) == [100]
        assert tree.search((9, 9, 9)) == []

    def test_lexicographic_order(self):
        fm = make_fm()
        tree = BTree.create(fm, "t")
        keys = [(1, 9), (0, 5), (1, 0), (0, 9), (2, 0)]
        for i, key in enumerate(keys):
            tree.insert(key, i)
        tree.validate()
        assert [k for k, _ in tree.items()] == sorted(keys)

    def test_mixed_element_types(self):
        fm = make_fm()
        tree = BTree.create(fm, "t")
        tree.insert((1, "apple"), 1)
        tree.insert((1, "banana"), 2)
        assert tree.search((1, "apple")) == [1]

    def test_scalar_key_rejected_in_tuple_tree(self):
        from repro.errors import BTreeError

        fm = make_fm()
        tree = BTree.create(fm, "t")
        tree.insert((1, 2), 1)
        with pytest.raises(BTreeError):
            tree.insert(5, 2)

    def test_nested_tuple_rejected(self):
        from repro.errors import BTreeError

        fm = make_fm()
        tree = BTree.create(fm, "t")
        with pytest.raises(BTreeError):
            tree.insert((1, (2, 3)), 1)

    def test_bulk_load_tuple_keys(self):
        fm = make_fm()
        keys = list(itertools.product(range(8), range(6), range(4)))
        tree = composite_tree(fm, keys)
        tree.validate()
        assert tree.search((3, 2, 1)) == [keys.index((3, 2, 1))]


class TestSkipScan:
    def brute_force(self, keys, allowed):
        return [
            i
            for i, key in enumerate(sorted(keys))
            if all(key[d] in set(allowed[d]) for d in range(len(allowed)))
        ]

    def test_basic_selection(self):
        fm = make_fm()
        keys = sorted(itertools.product(range(6), range(5), range(4)))
        tree = composite_tree(fm, keys)
        allowed = [[1, 4], [0, 2], [3]]
        expected = self.brute_force(keys, allowed)
        assert skip_scan(tree, allowed) == expected

    def test_all_allowed_is_full_scan(self):
        fm = make_fm()
        keys = sorted(itertools.product(range(4), range(4)))
        tree = composite_tree(fm, keys)
        allowed = [list(range(4)), list(range(4))]
        assert skip_scan(tree, allowed) == list(range(16))

    def test_empty_dimension_list(self):
        fm = make_fm()
        keys = sorted(itertools.product(range(3), range(3)))
        tree = composite_tree(fm, keys)
        assert skip_scan(tree, [[1], []]) == []

    def test_no_matches(self):
        fm = make_fm()
        keys = sorted(itertools.product(range(3), range(3)))
        tree = composite_tree(fm, keys)
        assert skip_scan(tree, [[99], [0]]) == []

    def test_sparse_keys(self):
        # not every combination exists — the skip must not invent cells
        fm = make_fm()
        keys = [(0, 0), (0, 3), (2, 1), (2, 3), (4, 0), (4, 4)]
        tree = composite_tree(fm, sorted(keys))
        allowed = [[0, 2, 4], [0, 3]]
        expected = self.brute_force(keys, allowed)
        assert skip_scan(tree, allowed) == expected

    def test_seek_counter_below_full_scan(self):
        fm = make_fm()
        keys = sorted(itertools.product(range(10), range(10), range(10)))
        tree = composite_tree(fm, keys)
        counters = Counters()
        allowed = [[3], [5], list(range(10))]
        hits = skip_scan(tree, allowed, counters)
        assert len(hits) == 10
        # the scan seeks a handful of times instead of walking 1000 keys
        assert counters.get("mbtree_seeks") <= 5
        assert counters.get("mbtree_hits") == 10

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
            min_size=1,
            max_size=80,
            unique=True,
        ),
        st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
        st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
        st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
    )
    def test_matches_brute_force_property(self, keys, a0, a1, a2):
        fm = make_fm()
        tree = composite_tree(fm, sorted(keys))
        allowed = [a0, a1, a2]
        assert skip_scan(tree, allowed) == self.brute_force(keys, allowed)


class TestEngineBackend:
    @pytest.fixture(scope="class")
    def engine(self):
        from repro.data import (
            SyntheticCubeConfig,
            cube_schema_for,
            generate_dimension_rows,
            generate_fact_rows,
        )
        from repro.olap import OlapEngine

        config = SyntheticCubeConfig(
            name="mb",
            dim_sizes=(8, 6, 10),
            n_valid=200,
            chunk_shape=(4, 3, 5),
            fanout1=3,
            seed=7,
        )
        engine = OlapEngine(page_size=1024, pool_bytes=1024 * 1024)
        engine.load_cube(
            cube_schema_for(config),
            generate_dimension_rows(config),
            generate_fact_rows(config),
            chunk_shape=config.chunk_shape,
            fact_mbtree=True,
        )
        return engine

    def test_matches_bitmap(self, engine):
        from repro.olap import ConsolidationQuery, SelectionPredicate

        query = ConsolidationQuery.build(
            "mb",
            group_by={"dim0": "h01", "dim2": "h21"},
            selections=[
                SelectionPredicate("dim1", "h11", values=("AA1",)),
                SelectionPredicate("dim2", "h21", values=("AA0", "AA2")),
            ],
        )
        mbtree = run_cold(engine, query, "mbtree").rows
        bitmap = engine.query(query, backend="bitmap").rows
        assert mbtree == bitmap

    def test_storage_report_counts_the_composite_btree(self, engine):
        from repro.olap.star_schema import mbtree_index_name

        state = engine.cube("mb")
        report = engine.storage_report("mb")
        assert report["mbtree_index"] == engine.db.btree(
            mbtree_index_name(state.schema)
        ).size_bytes()
        assert report["mbtree_index"] > 0
        assert "btree_indices" not in report  # no per-dimension trees

    def test_requires_selection(self, engine):
        from repro.errors import PlanError
        from repro.olap import ConsolidationQuery

        query = ConsolidationQuery.build("mb", group_by={"dim0": "h01"})
        with pytest.raises(PlanError, match="selection"):
            run_cold(engine, query, "mbtree")

    def test_unavailable_without_flag(self, loaded=None):
        from repro.data import (
            SyntheticCubeConfig,
            cube_schema_for,
            generate_dimension_rows,
            generate_fact_rows,
        )
        from repro.errors import PlanError
        from repro.olap import ConsolidationQuery, OlapEngine, SelectionPredicate

        config = SyntheticCubeConfig(
            name="nomb", dim_sizes=(4, 4), n_valid=8, chunk_shape=(2, 2)
        )
        engine = OlapEngine(page_size=1024, pool_bytes=256 * 1024)
        engine.load_cube(
            cube_schema_for(config),
            generate_dimension_rows(config),
            generate_fact_rows(config),
        )
        query = ConsolidationQuery.build(
            "nomb",
            group_by={"dim0": "h01"},
            selections=[SelectionPredicate("dim1", "h11", values=("AA1",))],
        )
        with pytest.raises(PlanError, match="fact_mbtree"):
            run_cold(engine, query, "mbtree")
