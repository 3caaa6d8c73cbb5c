"""QueryService: caching, admission control, metrics, write invalidation."""

import gc
import weakref

import pytest

from repro.bench import query1_for, query2_for
from repro.data import (
    SyntheticCubeConfig,
    cube_schema_for,
    generate_dimension_rows,
    generate_fact_rows,
)
from repro.errors import AdmissionError
from repro.serve import QueryService, ServiceConfig, query_fingerprint

from .conftest import CONFIG, fresh_engine, start, wait_until

QUERY1 = query1_for(CONFIG)
QUERY2 = query2_for(CONFIG)


class TestCaching:
    def test_repeat_execute_hits_the_result_cache(self, engine):
        with QueryService(engine) as service:
            first = service.execute(QUERY1)
            second = service.execute(QUERY1)
        assert "result_cache_hit" not in first.stats
        assert second.stats["result_cache_hit"] == 1.0
        assert second.sim_io_s == 0.0
        assert second.rows == first.rows
        assert second.backend == first.backend

    def test_distinct_queries_cache_separately(self, engine):
        with QueryService(engine) as service:
            service.execute(QUERY1)
            service.execute(QUERY2)
            assert len(service.results) == 2
            stats = service.stats()
        # each cold execute misses twice: once lock-free, once on the
        # double-check under the engine lock
        assert stats["result_cache.misses"] == 4
        assert stats.get("result_cache.hits", 0) == 0

    def test_backend_is_part_of_the_key(self, engine):
        with QueryService(engine) as service:
            service.execute(QUERY1, "array")
            result = service.execute(QUERY1, "starjoin")
        assert "result_cache_hit" not in result.stats
        assert result.backend == "starjoin"

    def test_chunk_cache_outlives_the_service(self, engine):
        array = engine.cube(CONFIG.name).array
        cache = engine.db.chunks
        assert array.chunk_cache is cache
        with QueryService(engine) as service:
            service.execute(QUERY1, "array")
            assert array.chunk_cache is cache
            assert service.memory.usage_by_store()["chunk_cache"] == (
                cache.resident_bytes()
            ) > 0
        assert array.chunk_cache is cache
        assert cache.resident_bytes() > 0


class TestAdmission:
    def test_backpressure_rejects_beyond_max_workers(self, engine):
        service = QueryService(engine, ServiceConfig(max_workers=1))
        try:
            # the admitted miss waits for the engine lock held here
            with service.engine_access(CONFIG.name):
                miss, answers = start(service, QUERY1)
                wait_until(lambda: service.in_flight == 1)
                with pytest.raises(AdmissionError):
                    service.execute(QUERY2)
                assert service.in_flight == 1
            miss.join(timeout=10)
            assert answers and answers[0].rows
            stats = service.stats()
            assert stats["serve.rejected"] == 1
            assert stats["serve.admitted"] == 1
        finally:
            service.close()
        assert service.in_flight == 0

    def test_closed_service_rejects(self, engine):
        service = QueryService(engine)
        service.close()
        with pytest.raises(AdmissionError):
            service.execute(QUERY1)

    def test_close_is_idempotent(self, engine):
        service = QueryService(engine)
        service.close()
        service.close()


class TestMetrics:
    def test_counters_and_gauges_registered(self, engine):
        with QueryService(engine) as service:
            service.execute(QUERY1)
            service.execute(QUERY1)
            names = engine.db.metrics.source_names()
            assert {"serve:service", "serve:result_cache",
                    "chunk_cache"} <= set(names)
            gauges = engine.db.metrics.gauge_values()
            assert gauges["serve.in_flight"] == 0.0
            assert gauges["serve.result_cache_entries"] == 1.0
            assert gauges["chunk_cache_entries"] == len(engine.db.chunks) >= 1
            merged = engine.db.metrics.merged_snapshot()
            assert merged["result_cache.hits"] == 1.0

    def test_counters_survive_engine_query_resets(self, engine):
        # the engine resets registry sources around each query; the
        # serve sources register with a no-op reset and stay cumulative
        with QueryService(engine) as service:
            for _ in range(3):
                service.execute(QUERY1)
            assert service.stats()["result_cache.hits"] == 2

    def test_sources_unregistered_on_close(self, engine):
        service = QueryService(engine)
        service.close()
        assert not any(
            name.startswith("serve:")
            for name in engine.db.metrics.source_names()
        )

    def test_closing_one_service_leaves_anothers_sources_and_gauges(
        self, engine
    ):
        registry = engine.db.metrics
        first = QueryService(engine)
        with QueryService(engine) as second:
            second.execute(QUERY1)
            second.execute(QUERY1)
            first.close()
            assert {
                "serve:service#2", "serve:result_cache#2",
                "serve:traces#2", "obs:memory#2",
            } <= set(registry.source_names())
            merged = registry.merged_snapshot()
            hits = second.stats()["result_cache.hits"]
            assert merged["result_cache.hits"] == hits == 1
            gauges = registry.gauge_values()
            usage = second.memory.usage_by_store()
            assert gauges["memory.total_resident_bytes#2"] == sum(usage.values()) > 0
            for store, resident in usage.items():
                assert gauges[f"memory.{store}.resident_bytes#2"] == resident
            assert gauges["serve.result_cache_entries#2"] == len(second.results) == 1

    def test_a_closed_service_is_freed_and_leaves_no_gauge(self, engine):
        registry = engine.db.metrics
        before = set(registry.gauge_values())
        service = QueryService(engine)
        service.execute(QUERY1)
        alive = weakref.ref(service)
        service.close()
        del service
        gc.collect()
        assert alive() is None
        assert set(registry.gauge_values()) == before


class TestWriteInvalidation:
    def put_keys(self, engine):
        return [tuple(row[:3]) for row in generate_fact_rows(CONFIG)]

    def test_write_cell_invalidates_and_recomputes(self, engine):
        with QueryService(engine) as service:
            before = service.execute(QUERY1, "array")
            generation = engine.cube_generation(CONFIG.name)
            keys = self.put_keys(engine)[0]
            service.write_cell(CONFIG.name, keys, (10_000,))
            assert engine.cube_generation(CONFIG.name) == generation + 1
            after = service.execute(QUERY1, "array")
            stats = service.stats()
        # the write's generation staled the entry: the lookup dropped it
        # and the query ran again, never served the stale answer
        assert "result_cache_hit" not in after.stats
        assert sum(r[-1] for r in after.rows) != sum(r[-1] for r in before.rows)
        assert stats["serve.writes"] == 1
        assert stats["result_cache.stale_drops"] == 1

    def test_append_facts_invalidates(self, engine):
        with QueryService(engine) as service:
            before = service.execute(QUERY1, "array")
            service.append_facts(CONFIG.name, [(0, 0, 0, 500)])
            after = service.execute(QUERY1, "array")
        assert sum(r[-1] for r in after.rows) == (
            sum(r[-1] for r in before.rows) + 500
        )

    def test_rebuild_array_invalidates(self, engine):
        with QueryService(engine) as service:
            service.execute(QUERY1, "array")
            service.rebuild_array(CONFIG.name)
            result = service.execute(QUERY1, "array")
            assert "result_cache_hit" not in result.stats
            assert service.stats()["result_cache.stale_drops"] == 1

    def test_writes_invalidate_exactly_the_written_cube(self, engine):
        other = SyntheticCubeConfig(
            name="other",
            dim_sizes=(4, 4, 6),
            n_valid=40,
            chunk_shape=(2, 2, 3),
            fanout1=2,
            seed=3,
        )
        engine.load_cube(
            cube_schema_for(other),
            generate_dimension_rows(other),
            generate_fact_rows(other),
            chunk_shape=other.chunk_shape,
        )
        other_query = query1_for(other)
        with QueryService(engine) as service:
            service.execute(QUERY1)
            service.execute(other_query)
            assert len(service.results) == 2
            service.write_cell(other.name, (0, 0, 0), (1,))
            # the untouched cube still hits; the written one recomputes
            hit = service.execute(QUERY1)
            recomputed = service.execute(other_query)
            assert service.stats()["result_cache.stale_drops"] == 1
        assert hit.stats["result_cache_hit"] == 1.0
        assert "result_cache_hit" not in recomputed.stats

    def test_stale_generation_read_is_lazy_dropped(self, engine):
        # the generation check alone prevents a stale read
        with QueryService(engine) as service:
            service.execute(QUERY1)
            fingerprint = query_fingerprint(QUERY1)
            generation = engine.cube_generation(CONFIG.name)
            assert (
                service.results.get(CONFIG.name, fingerprint, generation + 1)
                is None
            )


def test_run_warm_leaves_no_dangling_chunk_cache():
    # regression: after run_warm's service has closed, the next service
    # accounts the cache the array still reads, not an orphaned one
    from repro.bench import run_warm

    engine = fresh_engine()
    run_warm(engine, QUERY1, backend="array", repeats=1)
    cache = engine.db.chunks
    assert engine.cube(CONFIG.name).array.chunk_cache is cache
    with QueryService(engine) as service:
        hits = cache.counters.get("chunk_cache.hits")
        service.execute(QUERY1, "array")
        assert service.stats()["chunk_cache.hits"] > hits
        assert service.memory.usage_by_store()["chunk_cache"] == (
            cache.resident_bytes()
        ) > 0
