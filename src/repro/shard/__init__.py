"""Horizontal sharding: scatter-gather consolidation over chunk ranges.

The paper's chunked layout (§3) makes consolidation embarrassingly
partitionable by chunk range, and every aggregate carries a mergeable
sketch (§6) — so a cube shards by splitting its chunk directory into
contiguous ranges, scattering each range's scan to a worker, and
merging the partial :class:`~repro.core.consolidate.ResultAccumulator`
states.  A shard's scan is the one chunk walk over a sub-range
(:func:`repro.core.consolidate.scan_chunk_range`); there is no other
partitioned-scan path in the tree.  :meth:`OlapEngine.query
<repro.olap.engine.OlapEngine.query>`'s ``shards``/``executor``
keywords are the one way in: no serving surface (the query service,
EXPLAIN, the CLI) shards.

- :mod:`repro.shard.plan` — contiguous chunk-range assignments;
- :mod:`repro.shard.executor` — the Executor protocol
  (``local`` / ``thread`` / ``process``);
- :mod:`repro.shard.worker` — the per-shard scan task, runnable
  in-process or in a spawned worker over its own volume image, buffer
  pool and WAL segment directory;
- :mod:`repro.shard.coordinator` — snapshot, scatter, straggler
  re-scatter, merge, and the ``shard.*`` metrics flow.
"""

from repro.shard.coordinator import ShardCoordinator
from repro.shard.executor import (
    LocalShardExecutor,
    ProcessShardExecutor,
    ShardExecutor,
    ThreadShardExecutor,
    make_executor,
)
from repro.shard.plan import ShardAssignment, ShardPlan, plan_shards

__all__ = [
    "LocalShardExecutor",
    "ProcessShardExecutor",
    "ShardAssignment",
    "ShardCoordinator",
    "ShardExecutor",
    "ShardPlan",
    "ThreadShardExecutor",
    "make_executor",
    "plan_shards",
]
