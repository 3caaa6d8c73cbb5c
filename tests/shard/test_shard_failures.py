"""Shard-level failure handling: re-scatter, exhaustion, partial mode."""

import pytest

from repro.errors import ShardScatterError, TransientError
from repro.olap import ConsolidationQuery


def query():
    return ConsolidationQuery.build("cube", group_by={"dim0": "h01"})


def oracle(engine):
    return engine.query(query(), backend="array", shards=1).rows


class TestRescatter:
    @pytest.mark.parametrize("executor", ["local", "thread", "process"])
    def test_worker_crash_is_rescattered(self, engine, executor):
        coord = engine.shard_coordinator
        before = coord.counters.snapshot().get("shard.retries", 0)
        coord.inject_fail_once(1)
        result = engine.query(
            query(), backend="array", shards=4, executor=executor
        )
        assert result.rows == oracle(engine)
        assert coord.counters.snapshot()["shard.retries"] == before + 1


class TestExhaustion:
    def test_exhausted_retries_raise_scatter_error(self, engine, monkeypatch):
        coord = engine.shard_coordinator
        monkeypatch.setattr(coord, "MAX_RETRY_ROUNDS", 0)
        coord.inject_fail_once(0)
        with pytest.raises(ShardScatterError):
            engine.query(query(), backend="array", shards=4, executor="local")

    def test_scatter_error_is_transient(self):
        # the serving layer's retry loop must treat a lost scatter as
        # retryable: worker pools respawn lazily, the next run can pass
        assert issubclass(ShardScatterError, TransientError)

    def test_allow_partial_degrades_instead_of_raising(
        self, engine, monkeypatch
    ):
        coord = engine.shard_coordinator
        monkeypatch.setattr(coord, "MAX_RETRY_ROUNDS", 0)
        before = coord.counters.snapshot().get("shard.partial_results", 0)
        coord.inject_fail_once(0)
        result = engine.query(
            query(),
            backend="array",
            shards=4,
            executor="local",
            allow_partial=True,
        )
        # shard 0's chunk range is missing: a strict subset of the
        # oracle's aggregate, flagged in both counter surfaces
        assert result.stats["shard_partial"] == 1
        assert coord.counters.snapshot()["shard.partial_results"] == before + 1
        full = {row[:-1]: row[-1] for row in oracle(engine)}
        partial = {row[:-1]: row[-1] for row in result.rows}
        assert set(partial) <= set(full)
        assert partial != full
