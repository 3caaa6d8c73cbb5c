"""The query service as a trace participant.

Every admitted query runs under a resolved :class:`TraceContext` —
explicit options first, then the submitting thread's installed context,
then a service-minted root — and records its outcome (span roots,
fingerprint, latency exemplar) under that identity.  A slow query's
trace is its one record: span tree, planner reason, cache disposition
and counters, kept past fast traffic, with a slow miss's analyzed plan
in the same record's ``plans``.
"""

import contextlib
import json
import time
import urllib.request

import pytest

from repro.api.model import LogicalModel
from repro.api.server import ApiEndpoint, ApiServer
from repro.obs.tracing import new_trace_context, trace_context
from repro.olap import ConsolidationQuery
from repro.serve import QueryService, ServiceConfig

from .conftest import CONFIG

QUERY = ConsolidationQuery.build(
    CONFIG.name, group_by={"dim0": "h01", "dim1": "h11"}
)
#: Query 1's shape: every dimension grouped, no selection
QUERY1 = ConsolidationQuery.build(
    CONFIG.name,
    group_by={f"dim{d}": f"h{d}1" for d in range(CONFIG.ndim)},
)


@pytest.fixture
def service(engine):
    svc = QueryService(engine, ServiceConfig(max_workers=2))
    yield svc
    svc.close()


@contextlib.contextmanager
def slowed(engine, seconds):
    """Every engine query sleeps ``seconds`` before it runs."""
    original = engine.query

    def slow_query(*args, **kwargs):
        time.sleep(seconds)
        return original(*args, **kwargs)

    engine.query = slow_query
    try:
        yield
    finally:
        engine.query = original


def _get_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def _nodes(node):
    yield node
    for child in node.get("children", ()):
        yield from _nodes(child)


class TestContextResolution:
    def test_service_mints_when_caller_has_none(self, service):
        service.execute(QUERY)
        (record,) = service.traces.values()
        assert record.origin == "service"

    def test_explicit_context_wins(self, service):
        ctx = new_trace_context(origin="caller")
        with trace_context(ctx):
            service.execute(QUERY)
        assert service.traces.keys() == [ctx.trace_id]
        assert service.traces.get(ctx.trace_id).origin == "caller"

    def test_callers_installed_context_survives_the_pool_hop(self, service):
        ctx = new_trace_context(origin="api")
        with trace_context(ctx):
            service.execute(QUERY)
        assert service.traces.keys() == [ctx.trace_id]

    def test_trace_never_changes_the_fingerprint(self, service):
        service.execute(QUERY)
        with trace_context(new_trace_context()):
            service.execute(QUERY)
        first, second = service.traces.values()
        assert first.attrs["fingerprint"] == second.attrs["fingerprint"]


class TestQueryRecord:
    def test_record_carries_spans_and_fingerprint(self, service):
        service.execute(QUERY)
        (record,) = service.traces.values()
        assert record.name == f"query:{CONFIG.name}"
        assert record.attrs["fingerprint"] == service.explain(QUERY).fingerprint
        assert record.attrs["cube"] == CONFIG.name
        assert record.span_count() >= 1
        assert record.roots[0]["name"] == "serve_query"

    def test_failed_query_records_error_status(self, service):
        bad = ConsolidationQuery.build(
            CONFIG.name, group_by={"dim0": "h99"}
        )
        with pytest.raises(Exception):
            service.execute(bad)
        index = service.traces.index()
        assert index and index[0]["status"] not in ("ok", "")

    def test_latency_exemplar_names_a_resident_trace(self, service):
        service.execute(QUERY)
        histogram = service.engine.db.metrics.histogram(
            "serve.query_latency_seconds"
        )
        exemplars = [e for e in histogram.exemplars() if e is not None]
        assert exemplars
        trace_id, value = exemplars[0]
        assert service.traces.get(trace_id) is not None
        assert value > 0

    def test_store_counters_registered(self, service):
        service.execute(QUERY)
        registry = service.engine.db.metrics
        snapshot = registry.snapshot_by_source().get("serve:traces", {})
        assert snapshot.get("traces.stored", 0) >= 1


class TestSlowTraces:
    """A slow query's trace holds what explains it."""

    def test_a_slow_miss_keeps_its_span_tree_reason_and_counters(self, engine):
        config = ServiceConfig(max_workers=2, slow_threshold_s=0.05)
        with QueryService(engine, config) as service:
            with slowed(engine, 0.06):
                service.execute(QUERY1)
            (record,) = service.traces.values()
            assert record.latency_s >= 0.05
            assert service.traces.kept(record)
            assert service.counters.get("serve.slow_queries") == 1
        # serve_query wraps the engine's query span, which wraps the
        # consolidation phases
        (root,) = record.roots
        assert root["name"] == "serve_query"
        assert root["attrs"]["cache"] == "miss"
        (query_span,) = root["children"]
        assert query_span["name"] == "query"
        assert query_span["attrs"]["backend"] == "array"
        assert query_span["attrs"]["planner_reason"] == "no-selections"
        assert "consolidate" in [c["name"] for c in query_span["children"]]
        # the query's counter deltas are the root span's
        assert root["io"].get("chunk_cache.misses", 0) > 0

    def test_fast_queries_are_not_slow(self, engine):
        config = ServiceConfig(max_workers=2, slow_threshold_s=30.0)
        with QueryService(engine, config) as service:
            service.execute(QUERY1)
            (record,) = service.traces.values()
            assert not service.traces.kept(record)
            assert service.counters.get("serve.slow_queries") == 0
            assert record.plans == []

    def test_the_cache_disposition_rides_on_each_trace(self, engine):
        with QueryService(engine, ServiceConfig(max_workers=2)) as service:
            service.execute(QUERY1)
            service.execute(QUERY1)
            miss, hit = service.traces.values()
        assert [r.roots[0]["attrs"]["cache"] for r in (miss, hit)] == [
            "miss", "hit",
        ]
        assert miss.attrs["fingerprint"] == hit.attrs["fingerprint"]

    def test_profile_capture_can_be_disabled(self, engine):
        config = ServiceConfig(max_workers=2, profile_queries=False)
        with QueryService(engine, config) as service:
            service.execute(QUERY1)
            (record,) = service.traces.values()
        # still recorded, but without the span-tree profile
        assert record.roots == []
        assert record.attrs["cube"] == CONFIG.name

    def test_one_trace_and_one_plan_explain_a_slow_miss(self, engine):
        """Past ``capacity`` fast requests, the slow miss's trace is still
        served, and it carries the analyzed plan of that run."""
        config = ServiceConfig(max_workers=2, slow_threshold_s=0.05)
        with QueryService(engine, config) as service:
            ctx = new_trace_context(origin="test")
            with slowed(engine, 0.06):
                with trace_context(ctx):
                    service.execute(QUERY1)
            for _ in range(service.traces.capacity + 1):
                service.execute(QUERY1)  # result-cache hits, all fast
            assert service.traces.counters.get("traces.evicted") >= 1
            endpoint = ApiEndpoint(engine, service, LogicalModel(cubes=()))
            with contextlib.closing(endpoint), ApiServer(endpoint) as server:
                trace = _get_json(f"{server.url}/trace/id/{ctx.trace_id}")
        assert trace["latency_s"] >= 0.05
        (plan,) = trace["plans"]
        assert plan["fingerprint"] == trace["attrs"]["fingerprint"]
        assert plan["analyzed"] is True
        assert plan["backend"] == "array"
        assert any(node.get("actuals") for node in _nodes(plan["plan"]))

    def test_a_slow_miss_plan_outlives_a_reclaim_below_the_trace_store(
        self, engine
    ):
        """A budget that sheds the result cache, ranked below the trace
        store, and then fast traces leaves the slow miss's record, and
        its plan, served."""
        config = ServiceConfig(max_workers=2, slow_threshold_s=0.05)
        with QueryService(engine, config) as service:
            ctx = new_trace_context(origin="test")
            with slowed(engine, 0.06):
                with trace_context(ctx):
                    service.execute(QUERY1)
            for aggregate in ("sum", "count", "min", "max", "avg"):
                for dim1 in ("h11", "h12"):
                    service.execute(  # fast misses, each a fast trace
                        ConsolidationQuery.build(
                            CONFIG.name,
                            group_by={"dim0": "h01", "dim1": dim1},
                            aggregate=aggregate,
                        )
                    )
            memory = service.memory
            usage = memory.usage_by_store()
            traces = len(service.traces)
            memory.budget_bytes = usage["buffer_pool"] + usage["traces"] // 2
            assert memory.maybe_reclaim(reason="test") > 0
            after = memory.usage_by_store()
            assert after["result_cache"] < usage["result_cache"]
            assert sum(after.values()) <= memory.budget_bytes
            assert len(service.traces) < traces  # fast traces went first
            endpoint = ApiEndpoint(engine, service, LogicalModel(cubes=()))
            with contextlib.closing(endpoint), ApiServer(endpoint) as server:
                trace = _get_json(f"{server.url}/trace/id/{ctx.trace_id}")
        (plan,) = trace["plans"]
        assert plan["analyzed"] is True
        assert plan["backend"] == "array"
        assert any(node.get("actuals") for node in _nodes(plan["plan"]))

    def test_a_reclaim_sheds_both_caches_before_the_slow_record(self, engine):
        """A budget of the buffer pool plus the trace store is over by
        what the caches hold: the reclaim takes it from them, cheapest
        first, and the trace store — ranked last — keeps its one slow
        record whole, however small a share of the budget it is."""
        config = ServiceConfig(max_workers=2, slow_threshold_s=0.05)
        with QueryService(engine, config) as service:
            ctx = new_trace_context(origin="test")
            with slowed(engine, 0.06):
                with trace_context(ctx):
                    service.execute(QUERY1)
            service.explain(QUERY, analyze=True)
            memory = service.memory
            usage = memory.usage_by_store()
            assert usage["result_cache"] > 0 and usage["chunk_cache"] > 0
            memory.budget_bytes = usage["buffer_pool"] + usage["traces"]
            freed = memory.maybe_reclaim(reason="test")
            after = memory.usage_by_store()
            assert freed == sum(usage.values()) - memory.budget_bytes
            assert after["traces"] == usage["traces"]
            assert after["result_cache"] + after["chunk_cache"] < (
                usage["result_cache"] + usage["chunk_cache"]
            )
            record = service.traces.get(ctx.trace_id)
        assert record is not None and record.plans
