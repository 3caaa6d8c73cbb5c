"""The shared decoded-chunk cache over a real OLAP array."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serve import ChunkCache
from repro.serve.chunk_cache import _ENTRY_OVERHEAD


def chunks_equal(a, b):
    return (
        a.no == b.no
        and np.array_equal(a.offsets, b.offsets)
        and np.array_equal(a.values, b.values)
    )


@pytest.fixture
def array(shared_engine):
    array = shared_engine.cube("served").array
    assert array.chunk_cache is None  # read_chunk is the uncached read
    return array


class TestBasics:
    def test_max_chunks_must_be_positive(self):
        with pytest.raises(ValueError):
            ChunkCache(0)

    def test_miss_then_hit_returns_same_chunk(self, array):
        cache = ChunkCache()
        first = cache.get_chunk(array, 0)
        second = cache.get_chunk(array, 0)
        assert second is first
        assert chunks_equal(first, array.read_chunk(0))
        snap = cache.counters.snapshot()
        assert snap["chunk_cache.misses"] == 1
        assert snap["chunk_cache.hits"] == 1

    def test_read_chunk_routes_through_attached_cache(self, array):
        cache = ChunkCache()
        array.chunk_cache = cache
        try:
            array.read_chunk(1)
            array.read_chunk(1)
        finally:
            array.chunk_cache = None
        assert cache.counters.get("chunk_cache.hits") == 1
        assert len(cache) == 1


def first_stored_chunk(array):
    return next(
        n for n in range(array.geometry.n_chunks) if array.directory.entry(n)[2]
    )


class TestRecords:
    def test_an_entry_is_charged_offsets_values_and_halves(self, array):
        cache = ChunkCache()
        chunk = cache.get_chunk(array, first_stored_chunk(array))
        assert cache.resident_bytes() == (
            chunk.offsets.nbytes
            + chunk.values.nbytes
            + sum(half.nbytes for half in chunk.halves)
            + _ENTRY_OVERHEAD
        )

    def test_a_cached_record_is_split_before_it_is_shared(self, array):
        cache = ChunkCache()
        chunk = cache.get_chunk(array, first_stored_chunk(array))
        # nothing is left to compute, so nothing writes it after insert:
        # its charge holds the halves before they are asked for
        parts = (chunk.offsets, chunk.values)
        assert chunk.nbytes == sum(p.nbytes for p in (*parts, *chunk.halves))
        assert chunk._origin is not None
        for part in (chunk.offsets, chunk.values, *chunk.halves):
            assert part.flags.aligned
            with pytest.raises(ValueError):
                part[0] = 0

    def test_an_uncached_record_splits_on_first_use(self, array):
        chunk = array.read_chunk(first_stored_chunk(array))
        assert chunk.nbytes == chunk.offsets.nbytes + chunk.values.nbytes
        assert chunk._origin is None
        halves = chunk.halves
        assert chunk.halves is halves
        assert chunk.origin == array.geometry.chunk_origin(chunk.no)
        assert [h.dtype for h in halves] == list(array.geometry.half_dtypes)


class TestEviction:
    def test_lru_eviction(self, array):
        cache = ChunkCache(max_chunks=2)
        cache.get_chunk(array, 0)
        cache.get_chunk(array, 1)
        cache.get_chunk(array, 0)  # refresh 0
        cache.get_chunk(array, 2)  # evicts 1
        assert cache.counters.get("chunk_cache.evictions") == 1
        cache.get_chunk(array, 1)  # a fresh miss now
        assert cache.counters.get("chunk_cache.misses") == 4


class TestInvalidation:
    def test_invalidate_one_chunk(self, array):
        cache = ChunkCache()
        cache.get_chunk(array, 0)
        cache.get_chunk(array, 1)
        cache.invalidate_chunk(array.name, 0)
        assert len(cache) == 1
        assert cache.counters.get("chunk_cache.invalidations") == 1
        cache.invalidate_chunk(array.name, 99)  # unknown: no counter
        assert cache.counters.get("chunk_cache.invalidations") == 1

    def test_invalidate_whole_array(self, array):
        cache = ChunkCache()
        for n in range(3):
            cache.get_chunk(array, n)
        cache.invalidate_array(array.name)
        assert len(cache) == 0
        assert cache.counters.get("chunk_cache.invalidations") == 3

    def test_clear_counts_nothing(self, array):
        cache = ChunkCache()
        cache.get_chunk(array, 0)
        cache.clear()
        assert len(cache) == 0
        assert cache.counters.get("chunk_cache.invalidations") == 0


class TestConcurrency:
    def test_concurrent_readers_decode_each_chunk_once(self, array):
        cache = ChunkCache()
        n_chunks = min(4, array.geometry.n_chunks)
        direct = [array.read_chunk(n) for n in range(n_chunks)]

        def reader(_):
            return [cache.get_chunk(array, n) for n in range(n_chunks)]

        with ThreadPoolExecutor(max_workers=8) as pool:
            observed = list(pool.map(reader, range(8)))
        # the I/O lock + double-check means each chunk decodes exactly once
        assert cache.counters.get("chunk_cache.misses") == n_chunks
        for chunks in observed:
            for got, want in zip(chunks, direct):
                assert chunks_equal(got, want)
