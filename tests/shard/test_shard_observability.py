"""Scatter/gather visibility: EXPLAIN nodes, service metrics, /metrics."""

import json

import pytest

from repro.bench import query2_for
from repro.obs.exporters import prometheus_text, span_from_dict
from repro.olap import ConsolidationQuery, ExecutionOptions
from repro.serve import QueryService, ServiceConfig, query_fingerprint
from repro.util.jsonschema_lite import validate

from .conftest import CONFIG


def query():
    return ConsolidationQuery.build(
        "cube", group_by={"dim0": "h01", "dim1": "h11"}
    )


class TestExplainSharded:
    def test_plan_grows_scatter_gather_nodes(self, engine):
        plan = engine.explain(
            query(),
            ExecutionOptions(backend="array", shards=2, executor="thread"),
        )
        ops = [n.op for n in plan.root.walk()]
        assert "array.shard_consolidate" in ops
        assert "shard.scatter" in ops
        assert "shard.scan[0]" in ops
        assert "shard.scan[1]" in ops
        assert "shard.gather" in ops
        scatter = next(n for n in plan.root.walk() if n.op == "shard.scatter")
        assert scatter.estimates["chunks_read"] > 0
        assert scatter.estimates["cells_scanned"] > 0

    def test_unsharded_plan_keeps_classic_shape(self, engine):
        plan = engine.explain(query(), ExecutionOptions(backend="array"))
        ops = [n.op for n in plan.root.walk()]
        assert "shard.scatter" not in ops

    def test_analyze_binds_per_shard_actuals(self, engine):
        plan = engine.explain(
            query(),
            ExecutionOptions(backend="array", shards=2, executor="thread"),
            analyze=True,
        )
        assert plan.analyzed
        scans = [
            n for n in plan.root.walk() if n.op.startswith("shard.scan[")
        ]
        assert len(scans) == 2
        for node in scans:
            assert node.actuals.get("chunks_read", 0) > 0
            assert node.actuals.get("cells_scanned", 0) > 0
        # every chunk is scanned exactly once across the shards
        n_chunks = len(engine._cubes["cube"].array._entries())
        assert sum(n.actuals["chunks_read"] for n in scans) == n_chunks

    def test_fingerprint_carries_shard_plan(self, engine):
        sharded = engine.explain(
            query(), ExecutionOptions(backend="array", shards=2)
        )
        classic = engine.explain(query(), ExecutionOptions(backend="array"))
        assert sharded.fingerprint != classic.fingerprint
        assert classic.fingerprint == query_fingerprint(
            query(), ExecutionOptions(backend="array")
        )


class TestShardedService:
    #: every call names its shard plan; the service has no defaults
    SHARDED = ExecutionOptions(shards=2, executor="thread")

    @pytest.fixture()
    def service(self, engine):
        with QueryService(engine, ServiceConfig(max_workers=2)) as svc:
            yield svc

    def test_misses_route_through_coordinator(self, engine, service):
        bag = engine.shard_coordinator.counters
        before = bag.snapshot().get("shard.queries", 0)
        result = service.execute(query(), self.SHARDED)
        assert result.rows == engine.query(
            query(), backend="array", shards=1
        ).rows
        assert bag.snapshot()["shard.queries"] == before + 1
        # hit: served from the result cache, no second scatter
        service.execute(query(), self.SHARDED)
        assert bag.snapshot()["shard.queries"] == before + 1

    def test_cache_keyed_by_shard_plan(self, service):
        fp_sharded = query_fingerprint(query(), self.SHARDED)
        fp_classic = query_fingerprint(query())
        service.execute(query(), self.SHARDED)
        assert fp_sharded != fp_classic

    def test_query_accepts_execution_options(self, service):
        opts = ExecutionOptions(shards=4, executor="local")
        result = service.execute(query(), opts)
        assert result.rows

    def test_shard_counters_reach_metrics_endpoint(self, engine, service):
        service.execute(query(), self.SHARDED)
        text = prometheus_text(engine.db.metrics)
        assert 'source="engine:shard"' in text
        assert "shard_queries_total" in text or "shard.queries" in text

    def test_flight_recorder_record_validates_and_decomposes(self, engine):
        """The worker subtrees survive into the stored trace record."""
        with QueryService(engine) as svc:
            svc.execute(
                query2_for(CONFIG), ExecutionOptions(shards=2, executor="process")
            )
            (trace_id,) = svc.traces.keys()
            record = svc.traces.get(trace_id).to_dict()
        with open(
            "benchmarks/schemas/trace.schema.json", encoding="utf-8"
        ) as handle:
            validate(record, json.load(handle))

        found = (
            span_from_dict(root).find("shard_scatter")
            for root in record["roots"]
        )
        scatter = next(span for span in found if span is not None)
        scans = [
            child
            for child in scatter.children
            if child.name.startswith("shard_scan_")
        ]
        assert len(scans) == 2
        workers = []
        for scan in scans:
            shipped = [
                child
                for child in scan.children
                if child.name.startswith("shard_worker")
            ]
            assert len(shipped) == 1
            workers += shipped
        for key in ("chunks_read", "cells_scanned"):
            total = scatter.io[key]
            assert total > 0
            assert sum(scan.io[key] for scan in scans) == total
            assert sum(worker.io[key] for worker in workers) == total
