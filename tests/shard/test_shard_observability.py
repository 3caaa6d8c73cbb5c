"""Shards stay off the serving surfaces; their counters still reach
``/metrics``."""

from repro.obs.exporters import prometheus_text
from repro.olap import ConsolidationQuery


def query():
    return ConsolidationQuery.build(
        "cube", group_by={"dim0": "h01", "dim1": "h11"}
    )


class TestExplainSharded:
    def test_unsharded_plan_keeps_classic_shape(self, engine):
        plan = engine.explain(query(), "array")
        ops = [n.op for n in plan.root.walk()]
        assert "shard.scatter" not in ops


class TestShardedService:
    def test_shard_counters_reach_metrics_endpoint(self, engine):
        engine.query(query(), backend="array", shards=2, executor="thread")
        text = prometheus_text(engine.db.metrics)
        assert 'source="engine:shard"' in text
        assert "shard_queries_total" in text or "shard.queries" in text
