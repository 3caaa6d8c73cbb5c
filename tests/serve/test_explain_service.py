"""EXPLAIN through the serving layer: plan cache + slowlog embedding."""

from repro.obs.explain import PlanCache
from repro.olap import ConsolidationQuery, ExecutionOptions
from repro.olap.query import SelectionPredicate
from repro.serve import QueryService, ServiceConfig

from tests.serve.conftest import CONFIG, fresh_engine


def _q1():
    return ConsolidationQuery.build(
        CONFIG.name,
        group_by={f"dim{d}": f"h{d}1" for d in range(CONFIG.ndim)},
    )


def _q2():
    return ConsolidationQuery.build(
        CONFIG.name,
        group_by={f"dim{d}": f"h{d}1" for d in range(CONFIG.ndim)},
        selections=[
            SelectionPredicate.in_list(f"dim{d}", f"h{d}1", "AA1")
            for d in range(CONFIG.ndim)
        ],
    )


class TestServiceExplain:
    def test_explain_caches_payload_by_fingerprint(self):
        with QueryService(fresh_engine()) as service:
            plan = service.explain(_q1(), ExecutionOptions(backend="array"))
            cached = service.plans.get(plan.fingerprint)
            assert cached is not None
            assert cached["backend"] == "array"
            assert cached["analyzed"] is False
            assert service.stats()["serve.explains"] == 1

    def test_explain_analyze_through_service(self):
        with QueryService(fresh_engine()) as service:
            plan = service.explain(
                _q1(), ExecutionOptions(backend="array"), analyze=True
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
            service.explain(_q1())
            gauges = engine.db.metrics.gauge_values()
            assert gauges["serve.plan_cache_entries"] == 1.0


class TestSlowlogPlans:
    def test_slow_miss_embeds_analyzed_plan(self):
        config = ServiceConfig(slowlog_threshold_s=0.0)
        with QueryService(fresh_engine(), config) as service:
            fingerprint_result = service.execute(_q2())
            entries = service.slowlog.entries()
            assert entries
            entry = entries[-1]
            assert entry.explain is not None
            assert entry.explain["analyzed"] is True
            assert entry.explain["backend"] == fingerprint_result.backend
            # actuals landed on at least one node of the embedded plan
            def nodes(node):
                yield node
                for child in node.get("children", ()):
                    yield from nodes(child)
            assert any(
                "actuals" in n and n["actuals"]
                for n in nodes(entry.explain["plan"])
            )
            # and the payload is addressable via the plan cache too
            assert service.plans.get(entry.fingerprint) == entry.explain

    def test_cache_hits_carry_no_plan(self):
        config = ServiceConfig(slowlog_threshold_s=0.0)
        with QueryService(fresh_engine(), config) as service:
            service.execute(_q1())
            service.execute(_q1())  # result-cache hit
            hit_entries = [
                e for e in service.slowlog.entries() if e.cache == "hit"
            ]
            assert hit_entries
            assert all(e.explain is None for e in hit_entries)

    def test_unprofiled_service_skips_plans_without_crashing(self):
        config = ServiceConfig(slowlog_threshold_s=0.0, profile_queries=False)
        with QueryService(fresh_engine(), config) as service:
            service.execute(_q2())
            entries = service.slowlog.entries()
            assert entries
            assert all(e.explain is None for e in entries)


class TestRecordShape:
    def test_slowlog_record_to_dict_includes_explain_field(self):
        config = ServiceConfig(slowlog_threshold_s=0.0)
        with QueryService(fresh_engine(), config) as service:
            service.execute(_q2())
            payload = service.slowlog.entries()[-1].to_dict()
        assert "explain" in payload
        assert payload["explain"] is None or payload["explain"]["plan"]

    def test_worst_misestimate_present_on_embedded_plan(self):
        config = ServiceConfig(slowlog_threshold_s=0.0)
        with QueryService(fresh_engine(), config) as service:
            service.execute(_q2())
            entry = service.slowlog.entries()[-1]
        assert entry.explain is not None
        assert entry.explain.get("worst_misestimate", 1.0) >= 1.0
