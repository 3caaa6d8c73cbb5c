"""Tests for slotted-page heap files."""

import pytest

from repro.errors import FileError
from repro.relational import HeapFile, Schema

DIM_SCHEMA = Schema([("d0", "int32"), ("h01", "str:8"), ("h02", "str:8")])


class TestHeapFile:
    def test_insert_and_get(self, fm):
        table = HeapFile.create(fm, "dim0", DIM_SCHEMA)
        rid = table.insert((1, "AA0", "BB0"))
        assert table.get(rid) == (1, "AA0", "BB0")
        assert len(table) == 1

    def test_scan_preserves_insert_order(self, fm):
        table = HeapFile.create(fm, "dim0", DIM_SCHEMA)
        rows = [(i, f"AA{i % 3}", f"BB{i % 2}") for i in range(50)]
        for row in rows:
            table.insert(row)
        assert list(table.scan()) == rows

    def test_rows_spill_across_pages(self, fm):
        table = HeapFile.create(fm, "dim0", DIM_SCHEMA)
        rows = [(i, "A", "B") for i in range(200)]
        table.insert_many(rows)
        assert list(table.scan()) == rows
        assert fm.open("dim0").npages > 1

    def test_insert_many_counts(self, fm):
        table = HeapFile.create(fm, "dim0", DIM_SCHEMA)
        table.insert_many([(i, "x", "y") for i in range(10)])
        table.insert((99, "z", "w"))
        assert len(table) == 11

    def test_non_ascii_values_round_trip_by_row_and_by_column(self, fm):
        """A value holding a non-ASCII byte takes the UTF-8 decode; an
        all-ASCII column, the plain cast: both give the stored strings."""
        table = HeapFile.create(fm, "dim0", DIM_SCHEMA)
        rows = [(0, "é", "BB0"), (1, "AA1", "ñandú"), (2, "AA2", "BB2")]
        table.insert_many(rows)
        assert list(table.scan()) == rows
        keys, h01, h02 = table.columns()
        assert keys.tolist() == [0, 1, 2]
        assert h01.tolist() == ["é", "AA1", "AA2"]
        assert h02.tolist() == ["BB0", "ñandú", "BB2"]
        assert h01.dtype.kind == h02.dtype.kind == "U"
        ascii_only = HeapFile.create(fm, "dim1", DIM_SCHEMA)
        ascii_only.insert_many([(5, "AA5", "BB5")])
        assert [c.tolist() for c in ascii_only.columns()] == [
            [5], ["AA5"], ["BB5"]
        ]

    def test_columns_by_name_decode_only_those_and_read_every_page(self, fm):
        table = HeapFile.create(fm, "dim0", DIM_SCHEMA)
        table.insert_many([(i, f"AA{i % 3}", f"BB{i % 2}") for i in range(200)])
        disk = fm.pool.disk.counters
        fm.pool.clear()
        before = disk.get("pages_read")
        keys, h01, h02 = table.columns()
        whole = disk.get("pages_read") - before
        fm.pool.clear()
        before = disk.get("pages_read")
        h02_only, keys_only = table.columns(["h02", "d0"])
        assert disk.get("pages_read") - before == whole > 1
        assert h02_only.tolist() == h02.tolist()
        assert keys_only.tolist() == keys.tolist()
        assert [c.tolist() for c in table.columns(["h01", "h01"])] == [
            h01.tolist(), h01.tolist()
        ]

    def test_survives_cold_reopen(self, fm):
        table = HeapFile.create(fm, "dim0", DIM_SCHEMA)
        table.insert_many([(i, "a", "b") for i in range(25)])
        fm.pool.clear()
        reopened = HeapFile.open(fm, "dim0")
        assert reopened.schema == DIM_SCHEMA
        assert len(reopened) == 25
        assert list(reopened.scan())[24] == (24, "a", "b")

    def test_schema_mismatch_on_open(self, fm):
        HeapFile.create(fm, "dim0", DIM_SCHEMA)
        other = Schema([("x", "int64")])
        with pytest.raises(FileError):
            HeapFile(fm.open("dim0"), other)

    def test_new_file_requires_schema(self, fm):
        pfile = fm.create("raw")
        with pytest.raises(FileError):
            HeapFile(pfile)

    def test_delete(self, fm):
        table = HeapFile.create(fm, "dim0", DIM_SCHEMA)
        rids = [table.insert((i, "a", "b")) for i in range(5)]
        table.delete(rids[2])
        assert len(table) == 4
        assert [r[0] for r in table.scan()] == [0, 1, 3, 4]

    def test_delete_twice_raises(self, fm):
        from repro.errors import PageError

        table = HeapFile.create(fm, "dim0", DIM_SCHEMA)
        rid = table.insert((1, "a", "b"))
        table.delete(rid)
        import pytest as _pytest

        with _pytest.raises(PageError):
            table.delete(rid)

    def test_update_in_place(self, fm):
        table = HeapFile.create(fm, "dim0", DIM_SCHEMA)
        rid = table.insert((1, "old", "x"))
        new_rid = table.update(rid, (1, "new", "x"))
        assert table.get(new_rid) == (1, "new", "x")
        assert len(table) == 1

    def test_size_includes_slot_overhead(self, fm):
        table = HeapFile.create(fm, "dim0", DIM_SCHEMA)
        table.insert_many([(i, "a", "b") for i in range(100)])
        # footprint must exceed the raw record bytes: slots + headers
        assert table.size_bytes() > 100 * DIM_SCHEMA.record_size
