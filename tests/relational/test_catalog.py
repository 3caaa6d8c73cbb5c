"""Tests for the Database catalog."""

import pytest

from repro.errors import CatalogError
from repro.relational import Database, Schema

DIM = Schema([("d0", "int32"), ("h01", "str:8")])
FACT = Schema([("d0", "int32"), ("volume", "int32")])


@pytest.fixture
def db():
    return Database(page_size=1024, pool_bytes=64 * 1024)


class TestTables:
    def test_create_and_lookup(self, db):
        heap = db.create_heap_table("dim0", DIM)
        fact = db.create_fact_table("fact", FACT)
        assert db.table("dim0") is heap
        assert db.table("fact") is fact
        assert db.table_names() == ["dim0", "fact"]

    def test_duplicate_name_rejected(self, db):
        db.create_heap_table("t", DIM)
        with pytest.raises(CatalogError):
            db.create_fact_table("t", FACT)

    def test_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.table("ghost")


class TestIndexes:
    def test_btree_index_maps_to_positions(self, db):
        fact = db.create_fact_table("fact", FACT)
        fact.append_many([(i % 3, i) for i in range(30)])
        tree = db.create_btree_index("fact.d0.idx", "fact", "d0")
        assert tree.search(1) == list(range(1, 30, 3))
        assert db.btree("fact.d0.idx") is tree

    def test_bitmap_index_registered(self, db):
        db.create_fact_table("fact", FACT)
        index = db.create_bitmap_index("fact.h01.bm", 4, ["a", "b", "a", "b"])
        assert db.bitmap("fact.h01.bm") is index
        assert "fact.h01.bm" in db.index_names()

    def test_unknown_index(self, db):
        with pytest.raises(CatalogError):
            db.btree("nope")
        with pytest.raises(CatalogError):
            db.bitmap("nope")

    def test_index_name_collision_with_table(self, db):
        db.create_heap_table("x", DIM)
        with pytest.raises(CatalogError):
            db.create_btree_index("x", "x", "d0")


class TestMeasurement:
    def test_cold_cache_forces_disk_reads(self, db):
        table = db.create_heap_table("dim0", DIM)
        table.insert_many([(i, "a") for i in range(100)])
        db.cold_cache()
        before = db.stats().get("pages_read", 0)
        list(table.scan())
        assert db.stats()["pages_read"] > before

    def test_warm_scan_reads_nothing(self, db):
        table = db.create_heap_table("dim0", DIM)
        table.insert_many([(i, "a") for i in range(100)])
        list(table.scan())  # warm the pool
        before = db.stats().get("pages_read", 0)
        list(table.scan())
        assert db.stats().get("pages_read", 0) == before

    def test_sim_io_seconds_positive_when_cold(self, db):
        table = db.create_heap_table("dim0", DIM)
        table.insert_many([(i, "a") for i in range(200)])
        db.cold_cache()
        before = db.sim_io_seconds()
        list(table.scan())
        assert db.sim_io_seconds() > before
