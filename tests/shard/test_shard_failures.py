"""Shard-level failure handling: re-scatter and exhaustion."""

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
