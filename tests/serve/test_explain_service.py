"""EXPLAIN through the serving layer: the plan cache, and the analyzed
plan a slow miss leaves there."""

from repro.bench import bench_settings, build_cube_engine, query1_for, query2_for
from repro.obs.explain import PlanCache
from repro.obs.tracing import new_trace_context, trace_context
from repro.serve import QueryService, ServiceConfig

from tests.serve.conftest import CONFIG, fresh_engine


class TestServiceExplain:
    def test_explain_caches_payload_by_fingerprint(self):
        with QueryService(fresh_engine()) as service:
            plan = service.explain(query1_for(CONFIG), "array")
            cached = service.plans.get(plan.fingerprint)
            assert cached is not None
            assert cached["backend"] == "array"
            assert cached["analyzed"] is False
            assert service.stats()["serve.explains"] == 1

    def test_explain_analyze_through_service(self):
        with QueryService(fresh_engine()) as service:
            plan = service.explain(
                query1_for(CONFIG), "array", analyze=True
            )
            assert plan.analyzed
            assert plan.rows > 0
            payload = service.plans.get(plan.fingerprint)
            assert payload["analyzed"] is True
            assert "execution" in payload
            assert service.stats()["serve.explain_analyzes"] == 1

    def test_plan_cache_capacity_is_the_store_default(self):
        with QueryService(fresh_engine()) as service:
            assert service.plans.capacity == PlanCache().capacity == 64

    def test_plan_cache_entries_gauge_exported(self):
        engine = fresh_engine()
        with QueryService(engine) as service:
            service.explain(query1_for(CONFIG))
            gauges = engine.db.metrics.gauge_values()
            assert gauges["serve.plan_cache_entries"] == 1.0


def _nodes(node):
    yield node
    for child in node.get("children", ()):
        yield from _nodes(child)


def _slow_miss_plan(service, query):
    """Run ``query`` under a fresh trace: its result, and the cached plan
    the trace's fingerprint names (``None`` if there is none)."""
    ctx = new_trace_context()
    with trace_context(ctx):
        result = service.execute(query)
    fingerprint = service.traces.get(ctx.trace_id).attrs["fingerprint"]
    return result, service.plans.get(fingerprint)


class TestSlowMissPlans:
    def test_slow_miss_caches_analyzed_plan(self):
        config = ServiceConfig(slow_threshold_s=0.0)
        with QueryService(fresh_engine(), config) as service:
            result, plan = _slow_miss_plan(service, query2_for(CONFIG))
        assert plan is not None
        assert plan["analyzed"] is True
        assert plan["backend"] == result.backend
        # actuals landed on at least one node of the cached plan
        assert any(node.get("actuals") for node in _nodes(plan["plan"]))

    def test_cache_hits_carry_no_plan(self):
        config = ServiceConfig(slow_threshold_s=0.0)
        with QueryService(fresh_engine(), config) as service:
            service.execute(query1_for(CONFIG))
            service.plans.clear()
            service.execute(query1_for(CONFIG))  # result-cache hit
            assert len(service.plans) == 0
            assert service.counters.get("serve.slow_queries") == 2

    def test_unprofiled_service_skips_plans_without_crashing(self):
        config = ServiceConfig(slow_threshold_s=0.0, profile_queries=False)
        with QueryService(fresh_engine(), config) as service:
            service.execute(query2_for(CONFIG))
            assert len(service.plans) == 0

    def test_a_plan_whose_backend_did_not_run_is_not_kept(self):
        """A write between the miss and its plan rebuild can stale the
        indices and flip the planner; that plan describes another run."""
        engine = build_cube_engine(
            CONFIG, bench_settings("small"), backends=("relational",)
        )
        state = engine.cube(CONFIG.name)
        original = engine.query

        def query_then_stale(*args, **kwargs):
            result = original(*args, **kwargs)
            if result.backend == "bitmap":
                state.indices_stale = True  # as a racing insert would
            return result

        engine.query = query_then_stale
        config = ServiceConfig(slow_threshold_s=0.0)
        with QueryService(engine, config) as service:
            result = service.execute(query2_for(CONFIG))
            backends = [service.plans.peek(fp)["backend"] for fp in service.plans.keys()]
        assert result.backend == "bitmap"
        assert [b for b in backends if b != result.backend] == []


class TestRecordShape:
    def test_worst_misestimate_present_on_embedded_plan(self):
        config = ServiceConfig(slow_threshold_s=0.0)
        with QueryService(fresh_engine(), config) as service:
            _, plan = _slow_miss_plan(service, query2_for(CONFIG))
        assert plan is not None
        assert plan.get("worst_misestimate", 1.0) >= 1.0
