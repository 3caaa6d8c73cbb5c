"""EXPLAIN through the serving layer, and the analyzed plan a slow miss
leaves in its trace record."""

import itertools
import json
import pathlib

from repro.bench import bench_settings, build_cube_engine, query1_for, query2_for
from repro.obs.tracing import new_trace_context, trace_context
from repro.olap import ConsolidationQuery
from repro.serve import QueryService, ServiceConfig
from repro.util.jsonschema_lite import validate

from tests.serve.conftest import CONFIG, fresh_engine

PLAN_SCHEMA = json.loads(
    (
        pathlib.Path(__file__).parents[2]
        / "benchmarks/schemas/explain_plan.schema.json"
    ).read_text(encoding="utf-8")
)


def _other_queries():
    """70 distinct ``(query, backend)`` pairs, none of them Query 1/2:
    every non-empty set of grouped dimensions × five aggregates × two
    backends."""
    dims = [f"dim{d}" for d in range(CONFIG.ndim)]
    group_bys = [
        {dim: f"h{dim[-1]}2" for dim in subset}
        for size in range(1, len(dims) + 1)
        for subset in itertools.combinations(dims, size)
    ]
    return [
        (ConsolidationQuery.build(CONFIG.name, group_by=g, aggregate=agg), backend)
        for g in group_bys
        for agg in ("sum", "count", "min", "max", "avg")
        for backend in ("array", "starjoin")
    ]


class TestServiceExplain:
    def test_explain_returns_its_plan(self):
        with QueryService(fresh_engine()) as service:
            plan = service.explain(query1_for(CONFIG), "array")
            assert plan.backend == "array"
            assert plan.to_dict()["analyzed"] is False
            assert service.stats()["serve.explains"] == 1
            # a plain EXPLAIN runs nothing: no answer is cached
            assert len(service.results) == 0

    def test_explain_analyze_through_service(self):
        with QueryService(fresh_engine()) as service:
            plan = service.explain(
                query1_for(CONFIG), "array", analyze=True
            )
            payload = plan.to_dict()
            assert payload["analyzed"] is True
            assert plan.rows > 0
            assert "execution" in payload
            assert service.stats()["serve.explain_analyzes"] == 1
            # the analyzed run's answer is cached like a miss's
            result = service.execute(query1_for(CONFIG), "array")
            assert result.stats["result_cache_hit"] == 1.0
            assert len(result) == plan.rows


def _nodes(node):
    yield node
    for child in node.get("children", ()):
        yield from _nodes(child)


def _slow_miss(service, query):
    """Run ``query`` under a fresh trace: its result and trace record."""
    ctx = new_trace_context()
    with trace_context(ctx):
        result = service.execute(query)
    return result, service.traces.get(ctx.trace_id)


class TestSlowMissPlans:
    def test_slow_miss_caches_analyzed_plan(self):
        """The record of a slow traced miss keeps the analyzed plan of
        its run."""
        config = ServiceConfig(slow_threshold_s=0.0)
        with QueryService(fresh_engine(), config) as service:
            result, record = _slow_miss(service, query2_for(CONFIG))
        (plan,) = record.plans
        assert plan["analyzed"] is True
        assert plan["backend"] == result.backend
        assert plan["fingerprint"] == record.attrs["fingerprint"]
        # actuals landed on at least one node of the recorded plan
        assert any(node.get("actuals") for node in _nodes(plan["plan"]))

    def test_a_slow_miss_plan_outlives_any_number_of_explains(self):
        """The plan lives as long as its trace: EXPLAINs of other
        queries, more than a fingerprint-keyed LRU of 64 plans held,
        leave the slow miss's record and its plan in place."""
        config = ServiceConfig(slow_threshold_s=0.0)
        with QueryService(fresh_engine(), config) as service:
            result, record = _slow_miss(service, query2_for(CONFIG))
            others = _other_queries()
            assert len(others) >= 65
            for query, backend in others:
                service.explain(query, backend)
            assert service.stats()["serve.explains"] == len(others)
            kept = service.traces.get(record.trace_id)
        assert kept is record
        (plan,) = kept.plans
        validate(plan, PLAN_SCHEMA)
        assert plan["analyzed"] is True
        assert plan["backend"] == result.backend
        assert any(node.get("actuals") for node in _nodes(plan["plan"]))

    def test_cache_hits_carry_no_plan(self):
        config = ServiceConfig(slow_threshold_s=0.0)
        with QueryService(fresh_engine(), config) as service:
            _, miss = _slow_miss(service, query1_for(CONFIG))
            _, hit = _slow_miss(service, query1_for(CONFIG))  # result-cache hit
            assert service.counters.get("serve.slow_queries") == 2
        assert len(miss.plans) == 1
        assert hit.plans == []

    def test_unprofiled_service_skips_plans_without_crashing(self):
        config = ServiceConfig(slow_threshold_s=0.0, profile_queries=False)
        with QueryService(fresh_engine(), config) as service:
            _, record = _slow_miss(service, query2_for(CONFIG))
        assert record.plans == []

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
            result, record = _slow_miss(service, query2_for(CONFIG))
        assert result.backend == "bitmap"
        assert [plan["backend"] for plan in record.plans] == ["bitmap"]


class TestRecordShape:
    def test_worst_misestimate_present_on_embedded_plan(self):
        config = ServiceConfig(slow_threshold_s=0.0)
        with QueryService(fresh_engine(), config) as service:
            _, record = _slow_miss(service, query2_for(CONFIG))
        (plan,) = record.plans
        assert plan.get("worst_misestimate", 1.0) >= 1.0
