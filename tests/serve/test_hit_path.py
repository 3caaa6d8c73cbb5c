"""Every query is answered on the thread that asks for it.

The caller probes the result cache once; a hit takes no in-flight slot,
no engine lock and opens no registry-bound span, so its trace root is
built from the lookup's own timing.  A miss takes a slot, waits for the
engine lock on the caller's thread and keeps its full span tree.  The
misses below are parked: each runs on a thread of its own while the
test holds ``engine_access``.
"""

import threading

import pytest

from repro.bench import query1_for, query2_for
from repro.errors import AdmissionError
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer, thread_tracing
from repro.obs.tracing import new_trace_context, trace_context
from repro.olap import ConsolidationQuery
from repro.serve import QueryService, ServiceConfig

from .conftest import CONFIG, start, wait_until

QUERY1 = query1_for(CONFIG)
QUERY2 = query2_for(CONFIG)
QUERY3 = ConsolidationQuery.build(CONFIG.name, group_by={"dim0": "h01"})


@pytest.fixture
def snapshot_calls(monkeypatch):
    """Counts every ``MetricsRegistry.snapshot_by_source`` call."""
    calls = []
    original = MetricsRegistry.snapshot_by_source

    def counted(self):
        calls.append(threading.current_thread())
        return original(self)

    monkeypatch.setattr(MetricsRegistry, "snapshot_by_source", counted)
    return calls


class TestAnsweredByTheCaller:
    def test_a_profiled_hit_takes_no_snapshot_and_is_done_on_return(
        self, engine, snapshot_calls
    ):
        with QueryService(engine, ServiceConfig(profile_queries=True)) as service:
            service.execute(QUERY1)
            assert snapshot_calls  # the miss ran under a registry tracer
            snapshot_calls.clear()
            result = service.execute(QUERY1)
            assert snapshot_calls == []
            assert result.stats["result_cache_hit"] == 1.0

    def test_a_hit_records_under_the_callers_context_on_its_thread(
        self, engine, monkeypatch
    ):
        with QueryService(engine) as service:
            service.execute(QUERY1)
            recorders = []
            record = service.traces.record

            def noting_thread(*args, **kwargs):
                recorders.append(threading.current_thread())
                return record(*args, **kwargs)

            monkeypatch.setattr(service.traces, "record", noting_thread)
            ctx = new_trace_context(origin="caller")
            with trace_context(ctx):
                service.execute(QUERY1)
            assert recorders == [threading.current_thread()]
            trace = service.traces.get(ctx.trace_id)
        assert trace is not None and trace.origin == "caller"
        (root,) = trace.roots
        assert root["name"] == "serve_query"
        assert root["attrs"]["cache"] == "hit"
        assert root["attrs"]["cube"] == CONFIG.name
        assert root["io"] == {}
        assert root["children"] == []

    def test_an_unprofiled_hit_records_no_roots(self, engine):
        config = ServiceConfig(profile_queries=False)
        with QueryService(engine, config) as service:
            service.execute(QUERY1)
            ctx = new_trace_context()
            with trace_context(ctx):
                service.execute(QUERY1)
            assert service.traces.get(ctx.trace_id).roots == []

    def test_a_hit_counts_as_admitted_and_observes_its_latency(self, engine):
        with QueryService(engine) as service:
            service.execute(QUERY1)
            registry = engine.db.metrics
            latency = registry.histogram("serve.query_latency_seconds")
            lookups = registry.histogram("serve.cache_lookup_seconds")
            before = (latency.count, lookups.count)
            service.execute(QUERY1)
            assert (latency.count, lookups.count) == (before[0] + 1, before[1] + 1)
            assert service.counters.get("serve.admitted") == 2
            assert service.in_flight == 0


class TestSaturation:
    def test_a_saturated_service_answers_hits_and_rejects_misses(self, engine):
        config = ServiceConfig(max_workers=2)
        with QueryService(engine, config) as service:
            warm = service.execute(QUERY1)
            # the admitted misses wait for the engine lock held here
            with service.engine_access(CONFIG.name):
                misses = [start(service, query) for query in (QUERY2, QUERY3)]
                wait_until(lambda: service.in_flight == 2)
                rejected = service.counters.get("serve.rejected")
                # the hit asks from a thread of its own, so a hit that
                # took the engine lock would park too
                hit, answers = start(service, QUERY1)
                hit.join(timeout=10)
                assert not hit.is_alive()
                assert answers[0].rows == warm.rows
                assert service.counters.get("serve.rejected") == rejected
                with pytest.raises(AdmissionError):
                    service.execute(
                        ConsolidationQuery.build(
                            CONFIG.name, group_by={"dim1": "h11"}
                        )
                    )
                assert service.counters.get("serve.rejected") == rejected + 1
                assert service.in_flight == 2
            for thread, answers in misses:
                thread.join(timeout=10)
                assert answers and answers[0].rows
            assert service.in_flight == 0

    def test_a_closed_service_rejects_a_cached_query(self, engine):
        service = QueryService(engine)
        service.execute(QUERY1)
        service.close()
        with pytest.raises(AdmissionError):
            service.execute(QUERY1)


class TestMisses:
    def test_a_double_checked_hit_shares_the_hit_span(self, engine):
        """Two misses of one query wait behind the engine: the second
        finds the first's answer on its double-check under the lock."""
        with QueryService(engine, ServiceConfig(max_workers=2)) as service:
            first_ctx, second_ctx = new_trace_context(), new_trace_context()
            with service.engine_access(CONFIG.name):
                misses = [
                    start(service, QUERY1, ctx) for ctx in (first_ctx, second_ctx)
                ]
                wait_until(lambda: service.in_flight == 2)
            results = []
            for thread, answers in misses:
                thread.join(timeout=10)
                results += answers
            stats = service.stats()
            records = [service.traces.get(c.trace_id) for c in (first_ctx, second_ctx)]
        # two caller probes, then one double-check miss and one hit
        assert stats["result_cache.misses"] == 3
        assert stats["result_cache.hits"] == 1
        assert sorted(r.stats.get("result_cache_hit", 0.0) for r in results) == [
            0.0, 1.0,
        ]
        roots = sorted(
            (record.roots[0] for record in records),
            key=lambda root: root["attrs"]["cache"],
        )
        assert [root["attrs"]["cache"] for root in roots] == ["hit", "miss"]
        assert roots[0]["io"] == {} and roots[0]["children"] == []
        assert roots[1]["children"][0]["name"] == "query"


class TestOnTheCallersThread:
    def test_a_service_starts_no_thread(self, engine):
        before = set(threading.enumerate())

        def started():
            return [t for t in threading.enumerate() if t not in before]

        service = QueryService(engine)
        assert started() == []
        service.execute(QUERY1)
        assert started() == []
        service.close()
        assert started() == []

    @pytest.mark.parametrize("profile", [True, False], ids=["profiled", "unprofiled"])
    def test_a_miss_adds_no_span_to_the_callers_tracer(self, engine, profile):
        caller = Tracer()
        with QueryService(engine, ServiceConfig(profile_queries=profile)) as service:
            with thread_tracing(caller):
                with caller.span("caller"):
                    result = service.execute(QUERY1)
        assert "result_cache_hit" not in result.stats
        (root,) = caller.roots
        assert root.children == []

    def test_a_miss_records_into_the_callers_trace_context(self, engine):
        ctx = new_trace_context(origin="caller")
        with QueryService(engine) as service:
            with trace_context(ctx):
                service.execute(QUERY1)
            record = service.traces.get(ctx.trace_id)
        assert record is not None and record.origin == "caller"
        (root,) = record.roots
        assert root["attrs"]["cache"] == "miss"
        (query,) = root["children"]
        assert query["name"] == "query"
        assert query["attrs"]["trace_id"] == ctx.trace_id
