"""The database's decoded-chunk cache over a real OLAP array."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.bench import query1_for, query2_for
from repro.serve import QueryService, ServiceConfig
from repro.storage import ChunkCache
from repro.storage.chunk_cache import _ENTRY_OVERHEAD

from .conftest import CONFIG

QUERY1 = query1_for(CONFIG)
QUERY2 = query2_for(CONFIG)


def chunks_equal(a, b):
    return (
        a.no == b.no
        and np.array_equal(a.offsets, b.offsets)
        and np.array_equal(a.values, b.values)
    )


@pytest.fixture
def array(shared_engine):
    array = shared_engine.cube("served").array
    assert array.chunk_cache is shared_engine.db.chunks
    return array


def get(cache, array, chunk_no):
    """``chunk_no`` of ``array`` through ``cache``, loaded uncached."""
    return cache.get_chunk(
        (array.name, chunk_no), lambda: array.read_chunk(chunk_no, cold=True)
    )


class TestBasics:
    def test_max_chunks_must_be_positive(self):
        with pytest.raises(ValueError):
            ChunkCache(0)

    def test_miss_then_hit_returns_same_chunk(self, array):
        cache = ChunkCache()
        first = get(cache, array, 0)
        second = get(cache, array, 0)
        assert second is first
        assert chunks_equal(first, array.read_chunk(0, cold=True))
        snap = cache.counters.snapshot()
        assert snap["chunk_cache.misses"] == 1
        assert snap["chunk_cache.hits"] == 1

    def test_read_chunk_routes_through_attached_cache(self, array):
        cache = array.chunk_cache
        cache.clear()
        before = cache.counters.snapshot()
        array.read_chunk(1)
        array.read_chunk(1)
        array.read_chunk(1, cold=True)  # around the cache: no lookup
        after = cache.counters.snapshot()
        for key in ("chunk_cache.hits", "chunk_cache.misses"):
            assert after[key] - before.get(key, 0) == 1
        assert cache.keys() == [(array.name, 1)]


def first_stored_chunk(array):
    return next(
        n for n in range(array.geometry.n_chunks) if array.directory.entry(n)[2]
    )


class TestRecords:
    def test_an_entry_is_charged_offsets_values_and_halves(self, array):
        cache = ChunkCache()
        chunk = get(cache, array, first_stored_chunk(array))
        assert cache.resident_bytes() == (
            chunk.offsets.nbytes
            + chunk.values.nbytes
            + sum(half.nbytes for half in chunk.halves)
            + _ENTRY_OVERHEAD
        )

    def test_a_cached_record_is_split_before_it_is_shared(self, array):
        cache = ChunkCache()
        chunk = get(cache, array, first_stored_chunk(array))
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
        chunk = array.read_chunk(first_stored_chunk(array), cold=True)
        assert chunk.nbytes == chunk.offsets.nbytes + chunk.values.nbytes
        assert chunk._origin is None
        halves = chunk.halves
        assert chunk.halves is halves
        assert chunk.origin == array.geometry.chunk_origin(chunk.no)
        assert [h.dtype for h in halves] == list(array.geometry.half_dtypes)


class TestEviction:
    def test_lru_eviction(self, array):
        cache = ChunkCache(max_chunks=2)
        get(cache, array, 0)
        get(cache, array, 1)
        get(cache, array, 0)  # refresh 0
        get(cache, array, 2)  # evicts 1
        assert cache.counters.get("chunk_cache.evictions") == 1
        get(cache, array, 1)  # a fresh miss now
        assert cache.counters.get("chunk_cache.misses") == 4


class TestInvalidation:
    def test_invalidate_one_chunk(self, array):
        cache = ChunkCache()
        get(cache, array, 0)
        get(cache, array, 1)
        cache.invalidate_chunk(array.name, 0)
        assert len(cache) == 1
        assert cache.counters.get("chunk_cache.invalidations") == 1
        cache.invalidate_chunk(array.name, 99)  # unknown: no counter
        assert cache.counters.get("chunk_cache.invalidations") == 1

    def test_invalidate_whole_array(self, array):
        cache = ChunkCache()
        for n in range(3):
            get(cache, array, n)
        cache.invalidate_array(array.name)
        assert len(cache) == 0
        assert cache.counters.get("chunk_cache.invalidations") == 3

    def test_clear_counts_nothing(self, array):
        cache = ChunkCache()
        get(cache, array, 0)
        cache.clear()
        assert len(cache) == 0
        assert cache.counters.get("chunk_cache.invalidations") == 0


class TestConcurrency:
    def test_concurrent_readers_decode_each_chunk_once(self, array):
        cache = ChunkCache()
        n_chunks = min(4, array.geometry.n_chunks)
        direct = [array.read_chunk(n, cold=True) for n in range(n_chunks)]

        def reader(_):
            return [get(cache, array, n) for n in range(n_chunks)]

        with ThreadPoolExecutor(max_workers=8) as pool:
            observed = list(pool.map(reader, range(8)))
        # the I/O lock + double-check means each chunk decodes exactly once
        assert cache.counters.get("chunk_cache.misses") == n_chunks
        for chunks in observed:
            for got, want in zip(chunks, direct):
                assert chunks_equal(got, want)


class TestOneCachePerDatabase:
    """The database owns the cache; engines and services read through it."""

    def test_a_cold_unsharded_query_reads_around_the_cache(self, engine):
        cache = engine.db.chunks
        engine.query(QUERY1, backend="array", cold=False)  # fill it
        assert len(cache)
        before = cache.counters.snapshot()
        for query in (QUERY1, QUERY2):
            result = engine.query(query, backend="array")
            assert result.stats["chunks_read"] > 0
            assert not any(key.startswith("chunk_cache.") for key in result.stats)
            assert len(cache) == 0
        assert cache.counters.snapshot() == before

    def test_an_engine_without_a_service_answers_warm_from_the_cache(
        self, engine
    ):
        first = engine.query(QUERY1, backend="array", cold=False)
        second = engine.query(QUERY1, backend="array", cold=False)
        assert first.stats["chunks_read"] > 0
        assert second.stats.get("chunks_read", 0) == 0
        assert second.stats["chunk_cache.hits"] == (
            engine.cube(CONFIG.name).array.geometry.n_chunks
        )
        assert second.rows == first.rows

    def test_a_second_service_sees_and_accounts_the_shared_cache(self, engine):
        with QueryService(engine), QueryService(engine) as second:
            second.execute(QUERY1, "array")
            assert second.stats()["chunk_cache.misses"] > 0
            assert second.memory.usage_by_store()["chunk_cache"] == (
                engine.db.chunks.resident_bytes()
            ) > 0

    def test_a_second_services_budget_sheds_the_shared_cache(self, engine):
        with QueryService(engine), QueryService(
            engine, ServiceConfig(memory_budget_bytes=1)
        ) as second:
            second.execute(QUERY1, "array")
            stats = second.stats()
            assert stats["chunk_cache.misses"] > 0
            assert stats["chunk_cache.pressure_evictions"] == (
                stats["chunk_cache.misses"]
            )
            assert second.memory.usage_by_store()["chunk_cache"] == 0
            assert len(engine.db.chunks) == 0

    def test_a_rebuilt_arrays_chunks_leave_the_cache(self, engine):
        with QueryService(engine) as service:
            old = engine.cube(CONFIG.name).array.name
            service.execute(QUERY1, "array")
            assert {name for name, _ in engine.db.chunks.keys()} == {old}
            rebuilt = service.rebuild_array(CONFIG.name)
            assert rebuilt.chunk_cache is engine.db.chunks
            assert not engine.db.chunks.keys()
            service.execute(QUERY1, "array")
            assert {name for name, _ in engine.db.chunks.keys()} == {rebuilt.name}


class TestReadsAroundTheCache:
    """What a write or a cold build reads leaves the cache as it was."""

    @pytest.fixture
    def x100(self):
        from repro.bench import bench_settings, build_cube_engine
        from repro.data.datasets import dataset1

        config = dataset1("small")[1]
        return config, build_cube_engine(config, bench_settings("small"))

    def test_a_write_to_an_uncached_chunk_reads_around_the_cache(self, x100):
        config, engine = x100
        cache = engine.db.chunks
        array = engine.cube(config.name).array
        keys = tuple(dim.key_of(0) for dim in array.dims)
        before = cache.counters.snapshot()
        engine.write_cell(config.name, keys, (5,))
        assert cache.counters.snapshot() == before
        assert len(cache) == 0
        assert array.get_cell(keys).tolist() == [5]

    def test_a_write_to_a_cached_chunk_uses_the_record(self, x100):
        config, engine = x100
        cache = engine.db.chunks
        array = engine.cube(config.name).array
        keys = tuple(dim.key_of(0) for dim in array.dims)
        record = array.read_chunk(0)
        before = cache.counters.snapshot()
        chunks_read = array.counters.get("chunks_read")
        engine.write_cell(config.name, keys, (7,))
        after = cache.counters.snapshot()
        assert after.get("chunk_cache.hits") == before.get("chunk_cache.hits")
        assert after["chunk_cache.invalidations"] == (
            before.get("chunk_cache.invalidations", 0) + 1
        )
        assert array.counters.get("chunks_read") == chunks_read
        assert len(cache) == 0
        assert 7 not in record.values.ravel().tolist()  # its buffer is private
        assert array.get_cell(keys).tolist() == [7]

    def test_a_cold_query_builds_its_stale_grain_around_the_cache(self, x100):
        from repro.olap import ConsolidationQuery

        config, engine = x100
        engine.declare_grain(config.name, "by_h01", {"dim0": "h01"})
        query = ConsolidationQuery.build(config.name, group_by={"dim0": "h01"})
        result = engine.query(query)
        assert result.backend == "rollup"
        assert len(engine.db.chunks) == 0
        assert not any(key.startswith("chunk_cache.") for key in result.stats)
        assert result.stats["chunks_read"] == 80
        # what the build read through the cache it read around it
        assert result.sim_io_s == pytest.approx(1.20876953125, rel=1e-9)
        assert result.rows == engine.query(query, backend="array").rows
