"""Tests for the large-object store (chunk storage substrate)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FileError
from repro.storage import BufferPool, FileManager, LargeObjectStore, SimulatedDisk


@pytest.fixture
def store(fm):
    return LargeObjectStore(fm, "chunks")


class TestBasics:
    def test_oids_are_dense(self, store):
        assert [store.create(b"a"), store.create(b"b")] == [0, 1]
        assert len(store) == 2

    def test_roundtrip_small_object(self, store):
        oid = store.create(b"hello world")
        assert store.read(oid) == b"hello world"
        assert store.length(oid) == 11

    def test_roundtrip_multi_page_object(self, store):
        payload = bytes(range(256)) * 20  # 5120 bytes over 1 KiB pages
        oid = store.create(payload)
        assert store.read(oid) == payload
        assert store.object_pages(oid) == 5

    def test_empty_object(self, store):
        oid = store.create(b"")
        assert store.read(oid) == b""
        assert store.object_pages(oid) == 1  # minimum allocation

    def test_exact_page_multiple(self, store):
        payload = b"z" * 2048
        oid = store.create(payload)
        assert store.read(oid) == payload
        assert store.object_pages(oid) == 2

    def test_unknown_oid(self, store):
        with pytest.raises(FileError):
            store.read(5)

    def test_sequential_objects_get_sequential_pages(self, store):
        first = store.create(b"x" * 2000)
        second = store.create(b"y" * 100)
        end_of_first = store.first_page(first) + store.object_pages(first)
        assert store.first_page(second) == end_of_first

    def test_footprint_accounts_pages_and_directory(self, store):
        store.create(b"x" * 3000)
        page = store.pool.disk.page_size
        assert store.footprint_bytes() >= 3 * page
        assert store.data_bytes() == 3000

    def test_survives_cold_restart(self, fm):
        store = LargeObjectStore(fm, "chunks")
        oid = store.create(b"persistent")
        fm.pool.clear()
        reopened = LargeObjectStore(fm, "chunks")
        assert len(reopened) == 1
        assert reopened.read(oid) == b"persistent"

    def test_directory_spans_pages(self, fm):
        store = LargeObjectStore(fm, "chunks")
        # 1 KiB pages hold 64 directory entries; force a second page.
        oids = [store.create(bytes([i % 256])) for i in range(70)]
        for i, oid in enumerate(oids):
            assert store.read(oid) == bytes([i % 256])


_PAGE = 1024  # the conftest disk's page size


class TestReadEveryLength:
    """``read`` trims the last page and joins once: every payload length
    around the page boundaries, from every pool state, round-trips."""

    @pytest.mark.parametrize(
        "resident", ["cold", "warm", "first page", "a middle page"]
    )
    @pytest.mark.parametrize(
        "length",
        [0, 1, _PAGE - 1, _PAGE, _PAGE + 1, 12 * _PAGE - 1, 12 * _PAGE, 12 * _PAGE + 5],
    )
    def test_roundtrip(self, store, length, resident):
        payload = bytes(i * 7 % 251 for i in range(length))
        store.create(b"neighbour before")
        oid = store.create(payload)
        store.create(b"neighbour after")
        first, pages = store.first_page(oid), store.object_pages(oid)
        assert pages == max(1, -(-length // _PAGE))
        if resident != "warm":
            store.pool.clear()
        if resident == "first page":
            store.pool.get(first)
        elif resident == "a middle page":
            store.pool.get(first + pages // 2)
        for _ in range(2):  # the second read is served from the pool
            got = store.read(oid)
            assert type(got) is bytes and got == payload
        assert store.first_page(oid) == first
        assert store.object_pages(oid) == pages
        assert store.length(oid) == length

    def test_cold_read_is_one_run_read(self, store, monkeypatch):
        oid = store.create(bytes(12 * _PAGE - 100))
        first = store.first_page(oid)
        store.pool.clear()
        store.length(oid)  # directory page in, as during a scan
        disk = store.pool.disk
        calls = []
        for name in ("read_run", "read_page"):
            real = getattr(disk, name)
            monkeypatch.setattr(
                disk, name,
                lambda *a, _name=name, _real=real: calls.append((_name, *a)) or _real(*a),
            )
        store.read(oid)
        assert calls == [("read_run", first, 12)]


@settings(max_examples=30)
@given(st.lists(st.binary(max_size=5000), min_size=1, max_size=12))
def test_many_objects_roundtrip(payloads):
    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_bytes=16 * 512)
    store = LargeObjectStore(FileManager(pool), "objs")
    oids = [store.create(p) for p in payloads]
    for oid, payload in zip(oids, payloads):
        assert store.read(oid) == payload
