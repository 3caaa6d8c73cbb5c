"""Slow-query capture through the serving stack.

The ring-buffer mechanics are unit-tested directly; the integration
tests drive real queries through a :class:`QueryService` with the
threshold tuned so a deliberately slowed query crosses it, then assert
the captured profile carries the full span tree (engine phases under
the ``query`` span), the planner's choice and reason, the cache
disposition, and the counter deltas.
"""

import json
import time

import pytest

from repro.api.model import LogicalModel
from repro.api.server import ApiEndpoint, ApiServer
from repro.obs import SlowQueryLog
from repro.olap.query import ConsolidationQuery
from repro.serve import QueryService, ServiceConfig

from .conftest import CONFIG


def _query1():
    return ConsolidationQuery.build(
        CONFIG.name,
        group_by={f"dim{d}": f"h{d}1" for d in range(CONFIG.ndim)},
    )


class TestRingBuffer:
    def test_threshold_gates_capture(self):
        log = SlowQueryLog(threshold_s=0.1)
        assert log.record("fp", "cube", "array", latency_s=0.05) is None
        assert log.record("fp", "cube", "array", latency_s=0.15) is not None
        assert len(log) == 1
        assert log.captured == 1

    def test_ring_keeps_newest(self):
        log = SlowQueryLog(capacity=3, threshold_s=0.0)
        for i in range(5):
            log.record(f"fp{i}", "cube", "array", latency_s=float(i + 1))
        entries = log.entries()
        assert [e.fingerprint for e in entries] == ["fp2", "fp3", "fp4"]
        assert log.captured == 5  # total survives eviction

    def test_find_returns_most_recent_for_fingerprint(self):
        log = SlowQueryLog(threshold_s=0.0)
        log.record("fp", "cube", "array", latency_s=1.0)
        log.record("fp", "cube", "bitmap", latency_s=2.0)
        found = log.find("fp")
        assert found is not None and found.backend == "bitmap"
        assert log.find("missing") is None

    def test_to_json_round_trips(self):
        log = SlowQueryLog(threshold_s=0.0)
        log.record("fp", "cube", "array", latency_s=1.0, cache="hit")
        payload = json.loads(log.to_json())
        assert payload[0]["fingerprint"] == "fp"
        assert payload[0]["cache"] == "hit"

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)


class TestServiceCapture:
    def test_slow_query_captured_with_full_span_tree(self, engine):
        """A deliberately slowed query lands in the log with its profile."""
        config = ServiceConfig(
            max_workers=2, slowlog_threshold_s=0.05, slowlog_capacity=8
        )
        with QueryService(engine, config) as service:
            # make the first (cache-miss) execution deliberately slow
            original = engine.query

            def slowed(*args, **kwargs):
                time.sleep(0.06)
                return original(*args, **kwargs)

            engine.query = slowed
            try:
                service.execute(_query1())
            finally:
                engine.query = original

            assert len(service.slowlog) == 1
            entry = service.slowlog.entries()[0]
            assert entry.latency_s >= 0.05
            assert entry.cube == CONFIG.name
            assert entry.cache == "miss"
            assert entry.plan["backend"] == entry.backend
            assert entry.plan["reason"] == "no-selections"
            assert entry.plan["requested"] == "auto"
            # full span tree: serve_query wraps the engine's query span,
            # which wraps the consolidation phases
            (root,) = entry.trace
            assert root["name"] == "serve_query"
            (query_span,) = root["children"]
            assert query_span["name"] == "query"
            assert query_span["attrs"]["planner_reason"] == "no-selections"
            phases = [child["name"] for child in query_span["children"]]
            assert "consolidate" in phases
            # counter deltas rode along with the profile
            assert entry.counters.get("chunk_cache.misses", 0) > 0
            assert service.counters.get("serve.slow_queries") == 1

    def test_fast_queries_not_captured(self, engine):
        config = ServiceConfig(max_workers=2, slowlog_threshold_s=30.0)
        with QueryService(engine, config) as service:
            service.execute(_query1())
            assert len(service.slowlog) == 0
            assert service.counters.get("serve.slow_queries") == 0

    def test_cache_hit_capture_notes_disposition(self, engine):
        config = ServiceConfig(max_workers=2, slowlog_threshold_s=0.0)
        with QueryService(engine, config) as service:
            service.execute(_query1())
            service.execute(_query1())
            entries = service.slowlog.entries()
            assert [e.cache for e in entries] == ["miss", "hit"]
            # both executions of the same query share a fingerprint
            assert entries[0].fingerprint == entries[1].fingerprint

    def test_profile_capture_can_be_disabled(self, engine):
        config = ServiceConfig(
            max_workers=2, slowlog_threshold_s=0.0, profile_queries=False
        )
        with QueryService(engine, config) as service:
            service.execute(_query1())
            entry = service.slowlog.entries()[0]
            # still logged, but without the span-tree profile
            assert entry.trace == []

    def test_slowlog_entries_gauge_exported(self, engine):
        config = ServiceConfig(max_workers=2, slowlog_threshold_s=0.0)
        with QueryService(engine, config) as service:
            service.execute(_query1())
            gauges = engine.db.metrics.gauge_values()
            assert gauges["serve.slowlog_entries"] == 1.0

    def test_live_trace_route_serves_capture(self, engine):
        """End to end: slow query -> /slowlog and /trace/<fingerprint>."""
        import urllib.request

        config = ServiceConfig(max_workers=2, slowlog_threshold_s=0.0)
        with QueryService(engine, config) as service:
            service.execute(_query1())
            fingerprint = service.slowlog.entries()[0].fingerprint
            with ApiServer(
                ApiEndpoint(engine, service, LogicalModel(cubes=()))
            ) as server:
                with urllib.request.urlopen(
                    f"{server.url}/trace/{fingerprint}", timeout=5
                ) as response:
                    payload = json.loads(response.read().decode("utf-8"))
        assert payload["fingerprint"] == fingerprint
        assert payload["trace"][0]["name"] == "serve_query"
