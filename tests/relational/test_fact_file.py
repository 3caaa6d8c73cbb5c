"""Tests for the §4.4 fact file."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FileError
from repro.relational import FactFile, Schema
from repro.storage import BufferPool, FileManager, SimulatedDisk
from repro.util import Bitset

FACT_SCHEMA = Schema(
    [
        ("d0", "int32"),
        ("d1", "int32"),
        ("d2", "int32"),
        ("d3", "int32"),
        ("volume", "int32"),
    ]
)


def rows(n):
    return [(i % 4, i % 3, i % 5, i % 7, i) for i in range(n)]


class TestFactFile:
    def test_append_and_positional_get(self, fm):
        fact = FactFile.create(fm, "fact", FACT_SCHEMA)
        data = rows(10)
        for row in data:
            assert fact.append(row) == data.index(row)
        assert fact.get(7) == data[7]

    def test_get_out_of_range(self, fm):
        fact = FactFile.create(fm, "fact", FACT_SCHEMA)
        fact.append(rows(1)[0])
        with pytest.raises(FileError):
            fact.get(1)

    def test_scan_order_and_page_spill(self, fm):
        fact = FactFile.create(fm, "fact", FACT_SCHEMA)
        data = rows(500)  # 20-byte records on 1 KiB pages -> ~10 pages
        fact.append_many(data)
        assert list(fact.scan()) == data
        assert fm.open("fact").npages >= 9

    def test_records_per_page_arithmetic(self, fm):
        fact = FactFile.create(fm, "fact", FACT_SCHEMA)
        assert fact.records_per_page == fm.pool.disk.page_size // 20
        data = rows(fact.records_per_page + 1)
        fact.append_many(data)
        # the second page's first tuple is reachable positionally
        assert fact.get(fact.records_per_page) == data[-1]

    def test_no_per_record_overhead(self, fm):
        fact = FactFile.create(fm, "fact", FACT_SCHEMA)
        fact.append_many(rows(1000))
        page = fm.pool.disk.page_size
        data_pages = -(-1000 // fact.records_per_page)
        # footprint = header + extent-rounded data pages, nothing per record
        extent = fm.open("fact").extent_pages
        extents = -(-data_pages // extent)
        assert fact.size_bytes() == page * (1 + extents * extent)

    def test_fetch_bitmap_returns_selected(self, fm):
        fact = FactFile.create(fm, "fact", FACT_SCHEMA)
        data = rows(300)
        fact.append_many(data)
        wanted = [5, 57, 58, 120, 299]
        bits = Bitset.from_indices(300, wanted)
        columns = fact.fetch_bitmap(bits)
        assert [column.dtype for column in columns] == [np.dtype("int32")] * 5
        assert list(zip(*(column.tolist() for column in columns))) == [
            data[i] for i in wanted
        ]
        counters = fact.counters
        assert counters.get("fact_tuples_fetched") == len(wanted)
        assert counters.get("fact_bitmap_pages") == len(
            {i // fact.records_per_page for i in wanted}
        )

    def test_fetch_bitmap_of_no_rows_has_typed_empty_columns(self, fm):
        fact = FactFile.create(fm, "fact", FACT_SCHEMA)
        fact.append_many(rows(70))
        columns = fact.fetch_bitmap(Bitset(70))
        assert [(len(c), c.dtype) for c in columns] == [(0, np.dtype("int32"))] * 5
        assert fact.counters.get("fact_tuples_fetched") == 0

    def test_fetch_bitmap_rejects_wrong_length(self, fm):
        fact = FactFile.create(fm, "fact", FACT_SCHEMA)
        fact.append_many(rows(10))
        with pytest.raises(FileError):
            fact.fetch_bitmap(Bitset(9))

    def test_fetch_bitmap_reads_each_page_once(self, fm):
        fact = FactFile.create(fm, "fact", FACT_SCHEMA)
        fact.append_many(rows(200))
        fm.pool.clear()
        disk = fm.pool.disk.counters
        before = disk.get("pages_read")
        per_page = fact.records_per_page
        bits = Bitset.from_indices(200, [0, 1, 2, per_page, per_page + 1])
        fact.fetch_bitmap(bits)
        # five tuples on two pages: at most a couple of header reads extra
        assert disk.get("pages_read") - before <= 4

    def test_survives_cold_reopen(self, fm):
        fact = FactFile.create(fm, "fact", FACT_SCHEMA)
        data = rows(42)
        fact.append_many(data)
        fm.pool.clear()
        reopened = FactFile.open(fm, "fact")
        assert len(reopened) == 42
        assert reopened.get(41) == data[41]

    def test_record_larger_than_page_rejected(self, pool):
        from repro.storage import FileManager

        fm = FileManager(pool)
        wide = Schema([("s", f"str:{pool.disk.page_size * 2}")])
        with pytest.raises(FileError):
            FactFile.create(fm, "fact", wide)

    def test_update_in_place(self, fm):
        fact = FactFile.create(fm, "fact", FACT_SCHEMA)
        fact.append_many(rows(20))
        fact.update(7, (9, 9, 9, 9, 999))
        assert fact.get(7) == (9, 9, 9, 9, 999)
        assert len(fact) == 20
        assert fact.get(6) == rows(20)[6]

    def test_update_out_of_range(self, fm):
        fact = FactFile.create(fm, "fact", FACT_SCHEMA)
        fact.append(rows(1)[0])
        with pytest.raises(FileError):
            fact.update(1, rows(1)[0])

    def test_empty_scan(self, fm):
        fact = FactFile.create(fm, "fact", FACT_SCHEMA)
        assert list(fact.scan()) == []


class TestBulkLoad:
    """``append_many`` works a page at a time, not a row at a time."""

    def test_touches_the_pool_per_page_not_per_row(self, fm):
        fact = FactFile.create(fm, "fact", FACT_SCHEMA)
        per_page = fact.records_per_page
        data = rows(3 * per_page + per_page // 2)
        counters = fm.pool.counters
        before = counters.get("pool_hits") + counters.get("pool_misses")
        fact.append_many(data)
        touches = counters.get("pool_hits") + counters.get("pool_misses") - before
        # per page: the data frame, and append_page's header rewrite;
        # once: the metadata blob and its header rewrite
        assert touches <= 2 * 4 + 2
        assert list(fact.scan()) == data
        assert [fact.get(i) for i in (0, per_page - 1, per_page, len(data) - 1)] == [
            data[i] for i in (0, per_page - 1, per_page, len(data) - 1)
        ]

    def test_continues_a_partly_filled_page(self, fm):
        fact = FactFile.create(fm, "fact", FACT_SCHEMA)
        data = rows(2 * fact.records_per_page + 7)
        fact.append_many(data[:5])
        fact.append(data[5])
        fact.append_many(iter(data[6:]))
        fact.append_many([])
        fm.pool.clear()
        assert list(FactFile.open(fm, "fact").scan()) == data

    def test_rows_packed_before_the_iterable_raises_are_counted(self, fm):
        fact = FactFile.create(fm, "fact", FACT_SCHEMA)
        data = rows(fact.records_per_page + 10)

        def failing():
            yield from data
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError):
            fact.append_many(failing())
        # what was packed is what is counted (at least the full page)
        assert fact.records_per_page <= len(fact) <= len(data)
        assert list(fact.scan()) == data[: len(fact)]

    def test_rows_may_come_from_a_scan_through_the_same_small_pool(self):
        from repro.storage import BufferPool, FileManager, SimulatedDisk

        disk = SimulatedDisk(page_size=1024)
        fm = FileManager(BufferPool(disk, capacity_bytes=3 * 1024))
        source = FactFile.create(fm, "source", FACT_SCHEMA)
        data = rows(4 * source.records_per_page + 3)
        source.append_many(data)
        copy = FactFile.create(fm, "copy", FACT_SCHEMA)
        copy.append_many(source.scan())
        assert list(copy.scan()) == data


class TestFind:
    """``find`` is the first tuple a scan would match on the key fields."""

    SCHEMA = Schema([("k", "int64"), ("name", "str:4"), ("m", "float64")])

    @staticmethod
    def _by_scan(fact, keys):
        for tuple_no, row in enumerate(fact.scan()):
            if tuple(row[: len(keys)]) == keys:
                return tuple_no
        return None

    def test_agrees_with_the_scan(self, fm):
        fact = FactFile.create(fm, "fact", self.SCHEMA)
        # 20-byte records, 51 a 1 KiB page: 130 rows end on a partial page
        data = [(i % 60, f"n{i % 7}", float(i)) for i in range(130)]
        fact.append_many(data)
        probes = [
            (0, "n0"),  # duplicated: tuples 0 and 60 and 120
            (59, "n3"),  # first match on the second page
            (9, "n3"),  # only on the last, partial page (tuple 129)
            (9, "n1"),  # never together
            (2**62, "n0"),
            (1, "n1x"),  # wider than the field
            ("1", "n1"),  # a key of another kind
            (1, 1),
            (0,),  # a key prefix
        ]
        for keys in probes:
            assert fact.find(keys) == self._by_scan(fact, keys), keys
        assert fact.find((9, "n3")) == 129
        assert fact.find((0, "n0")) == 0

    def test_rows_past_the_count_are_not_found(self, fm):
        fact = FactFile.create(fm, "fact", self.SCHEMA)
        assert fact.find((0, "")) is None  # zeroed page, no tuples
        fact.append((5, "a", 1.0))
        assert fact.find((0, "")) is None
        assert fact.find((5, "a", 1.0)) == 0


class TestFetchBitmapColumns:
    """``fetch_bitmap`` is the positional ``get`` of every set bit, in
    position order, taken a page at a time as columns."""

    SCHEMA = Schema([("k", "int64"), ("name", "str:4"), ("m", "float64")])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_equals_a_get_per_set_bit(self, data):
        pool = BufferPool(SimulatedDisk(page_size=1024), 64 * 1024)
        fact = FactFile.create(FileManager(pool), "fact", self.SCHEMA)
        # 20-byte records, 51 a page: the last page is partial
        count = data.draw(st.integers(1, 260))
        fact.append_many(
            [(i * 2**40 - 7, f"n{i % 7}", i / 3) for i in range(count)]
        )
        wanted = sorted(
            data.draw(st.sets(st.integers(0, count - 1), max_size=count))
        )
        columns = fact.fetch_bitmap(Bitset.from_indices(count, wanted))
        assert list(zip(*(column.tolist() for column in columns))) == [
            fact.get(i) for i in wanted
        ]
        assert fact.counters.get("fact_bitmap_pages") == len(
            {i // fact.records_per_page for i in wanted}
        )


class TestGetMany:
    """``get_many`` is a ``get`` per position, decoded as columns: the
    same rows, the same page reads in the same order, the same count."""

    SCHEMA = Schema([("k", "int64"), ("name", "str:4"), ("m", "float64")])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_equals_a_get_per_position(self, data):
        pool = BufferPool(SimulatedDisk(page_size=1024), 64 * 1024)
        fact = FactFile.create(FileManager(pool), "fact", self.SCHEMA)
        count = data.draw(st.integers(1, 260))
        fact.append_many(
            [(i * 2**40 - 7, f"n{i % 7}", i / 3) for i in range(count)]
        )
        wanted = sorted(
            data.draw(st.sets(st.integers(0, count - 1), max_size=count))
        )
        reads = []
        original = pool.get
        pool.get = lambda page_id: reads.append(page_id) or original(page_id)
        columns = fact.get_many(wanted)
        batched, reads[:] = list(reads), []
        gets = fact.counters.get("fact_tuple_gets")
        rows = [fact.get(i) for i in wanted]
        assert list(zip(*(column.tolist() for column in columns))) == rows
        assert batched == reads
        assert gets == len(wanted) == fact.counters.get("fact_tuple_gets") - gets
        assert [column.dtype.kind for column in columns] == ["i", "U", "f"]

    def test_no_positions_gives_empty_typed_columns(self, fm):
        fact = FactFile.create(fm, "fact", FACT_SCHEMA)
        fact.append_many(rows(5))
        columns = fact.get_many([])
        assert [len(column) for column in columns] == [0] * 5
        assert [column.dtype for column in columns] == [np.dtype("<i4")] * 5

    def test_out_of_range_position_rejected(self, fm):
        fact = FactFile.create(fm, "fact", FACT_SCHEMA)
        fact.append_many(rows(5))
        with pytest.raises(FileError):
            fact.get_many([1, 5])
