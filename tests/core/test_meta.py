"""Tests for the chunk meta directory."""

import pytest

from repro.core.meta import NO_CHUNK, ChunkDirectory
from repro.errors import ChunkError


class TestChunkDirectory:
    def test_created_empty(self, fm):
        directory = ChunkDirectory.create(fm, "dir", 10)
        assert directory.n_chunks == 10
        assert directory.entry(3) == (NO_CHUNK, 0, 0)
        assert directory.total_valid() == 0

    def test_set_and_get_entries(self, fm):
        directory = ChunkDirectory.create(fm, "dir", 5)
        directory.set_entry(2, oid=7, length=900, count=42)
        assert directory.entry(2) == (7, 900, 42)
        assert directory.total_valid() == 42
        assert sum(directory.entry(c)[1] for c in range(5)) == 900

    def test_entries_span_pages(self, fm):
        # 1 KiB pages hold 42 entries; force several pages
        directory = ChunkDirectory.create(fm, "dir", 200)
        for c in range(200):
            directory.set_entry(c, c, c * 10, 1)
        assert directory.entry(199) == (199, 1990, 1)
        assert directory.total_valid() == 200

    def test_out_of_range(self, fm):
        directory = ChunkDirectory.create(fm, "dir", 4)
        with pytest.raises(ChunkError):
            directory.entry(4)
        with pytest.raises(ChunkError):
            directory.set_entry(-1, 0, 0, 0)

    def test_nonpositive_chunks_rejected(self, fm):
        with pytest.raises(ChunkError):
            ChunkDirectory.create(fm, "dir", 0)

    def test_array_meta_pointer(self, fm):
        directory = ChunkDirectory.create(fm, "dir", 3)
        assert directory.array_meta_oid == NO_CHUNK
        directory.set_array_meta_oid(12)
        assert directory.array_meta_oid == 12

    def test_survives_cold_reopen(self, fm):
        directory = ChunkDirectory.create(fm, "dir", 8)
        directory.set_entry(5, 3, 777, 9)
        directory.set_array_meta_oid(4)
        fm.pool.clear()
        reopened = ChunkDirectory.open(fm, "dir")
        assert reopened.n_chunks == 8
        assert reopened.entry(5) == (3, 777, 9)
        assert reopened.array_meta_oid == 4

    def test_open_uninitialized_rejected(self, fm):
        fm.create("raw")
        with pytest.raises(ChunkError):
            ChunkDirectory.open(fm, "raw")

    def test_size_bytes(self, fm):
        directory = ChunkDirectory.create(fm, "dir", 100)
        assert directory.size_bytes() > 0
