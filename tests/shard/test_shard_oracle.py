"""Sharded consolidation equals the single-process oracles.

The property the coordinator must preserve (§6: the accumulators are
mergeable sketches): for every shard count and executor, the
scatter/gather result is row-identical to the classic single-shard
scan, and to the per-cell reference kernel over every chunk.
"""

import pytest

from repro.core.consolidate import (
    ConsolidationSpec,
    ResultAccumulator,
    scan_chunk_range,
)
from repro.olap import ConsolidationQuery, SelectionPredicate
from repro.shard.plan import plan_shards

from tests.shard.conftest import CONFIG

SHARD_COUNTS = (1, 2, 4, 7)
EXECUTORS = ("local", "thread", "process")
#: the kernel each oracle runs: the per-cell reference, or the one
#: every query runs
KERNELS = ("interpreted", "vectorized")


def plain_query():
    return ConsolidationQuery.build(
        "cube", group_by={"dim0": "h01", "dim1": "h11"}
    )


def selective_query():
    return ConsolidationQuery.build(
        "cube",
        group_by={"dim0": "h01", "dim2": "h21"},
        selections=[
            SelectionPredicate.in_list("dim1", "h11", "AA0", "AA1"),
            SelectionPredicate.between("dim2", "d2", 1, 8),
        ],
    )


def oracle(engine, query):
    return engine.query(query, backend="array", shards=1).rows


def reference_rows(engine):
    """``plain_query`` through the per-cell reference kernel."""
    array = engine.cube("cube").array
    accumulator = ResultAccumulator(
        array,
        [
            ConsolidationSpec.level("h01"),
            ConsolidationSpec.level("h11"),
            ConsolidationSpec.drop(),
        ],
    )
    scan_chunk_range(
        array, accumulator, range(array.geometry.n_chunks), "interpreted"
    )
    return accumulator.rows()


class TestOracleMatrix:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_plain_consolidation_matches(self, engine, shards, executor, kernel):
        expected = (
            reference_rows(engine)
            if kernel == "interpreted"
            else oracle(engine, plain_query())
        )
        result = engine.query(
            plain_query(),
            backend="array",
            shards=shards,
            executor=executor,
        )
        assert result.rows == expected
        if shards > 1:
            assert result.stats.get("shards") == shards

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_selection_pushdown_matches(self, engine, shards, executor):
        expected = oracle(engine, selective_query())
        result = engine.query(
            selective_query(),
            backend="array",
            shards=shards,
            executor=executor,
        )
        assert result.rows == expected

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("executor", ("local", "thread"))
    @pytest.mark.parametrize("aggregate", ("min", "max", "var"))
    def test_sketch_aggregates_match(self, engine, shards, executor, aggregate):
        # the partition-exactness the deleted core.parallel tests held:
        # min/max fold, and var's (n, Σ, Σx²) moment columns merge by
        # addition
        query = ConsolidationQuery.build(
            "cube", group_by={"dim0": "h01", "dim1": "h11"}, aggregate=aggregate
        )
        expected = oracle(engine, query)
        result = engine.query(
            query,
            backend="array",
            shards=shards,
            executor=executor,
        )
        assert len(result.rows) == len(expected)
        for got, want in zip(result.rows, expected):
            assert got[:-1] == want[:-1]
            assert got[-1] == pytest.approx(want[-1])

    def test_remainder_assignment_covers_every_chunk(self, engine):
        # 8 chunks over 7 shards: one shard gets the remainder, none
        # may be dropped or double-counted
        state = engine.cube("cube")
        n_chunks = len(state.array.chunk_directory())
        assert n_chunks % 7 != 0
        plan = plan_shards(state.array, 7)
        covered = sorted(
            c
            for a in plan.assignments
            for c in range(a.chunk_range.start, a.chunk_range.stop)
        )
        assert covered == list(range(n_chunks))

    def test_matches_raw_fact_oracle(self, engine, fact_rows):
        # one independent check against the raw fact rows, not just
        # the engine's own single-shard path
        result = engine.query(
            plain_query(),
            backend="array",
            shards=4,
            executor="thread",
        )
        groups = {}
        for row in fact_rows:
            key = (
                f"AA{row[0] % CONFIG.fanout1}",
                f"AA{row[1] % CONFIG.fanout1}",
            )
            groups[key] = groups.get(key, 0) + row[-1]
        assert sorted(result.rows) == sorted(
            k + (v,) for k, v in groups.items()
        )

    def test_per_shard_metrics_flow_into_registry(self, engine):
        bag = engine.shard_coordinator.counters
        before = bag.snapshot().get("shard.queries", 0)
        engine.query(
            plain_query(), backend="array", shards=2, executor="thread"
        )
        after = bag.snapshot()
        assert after["shard.queries"] == before + 1
        assert after["shard.scatter_ms"] >= 0
        assert after["shard.merge_ms"] >= 0
