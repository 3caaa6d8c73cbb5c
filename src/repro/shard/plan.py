"""Shard planning: contiguous chunk-range assignments.

A shard plan is pure metadata: it partitions ``range(n_chunks)`` into
contiguous near-equal ranges (:func:`partition_chunks`), one per shard
task.  The coordinator loads the chunk directory itself before it
scatters; a plan reads nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.olap_array import OLAPArray
from repro.errors import QueryError


def partition_chunks(n_chunks: int, n_partitions: int) -> list[range]:
    """Split ``range(n_chunks)`` into contiguous, near-equal ranges.

    Contiguity keeps each partition's disk reads sequential — the same
    layout argument §4.2 makes for the single-node scan.
    """
    if n_partitions <= 0:
        raise QueryError(f"n_partitions must be positive, got {n_partitions}")
    n_partitions = min(n_partitions, max(1, n_chunks))
    base, extra = divmod(n_chunks, n_partitions)
    ranges = []
    start = 0
    for p in range(n_partitions):
        size = base + (1 if p < extra else 0)
        ranges.append(range(start, start + size))
        start += size
    return ranges


@dataclass(frozen=True)
class ShardAssignment:
    """One shard's contiguous chunk range."""

    shard_no: int
    start: int
    stop: int

    @property
    def chunk_range(self) -> range:
        return range(self.start, self.stop)


@dataclass(frozen=True)
class ShardPlan:
    """The coordinator's chunk-range assignment for one query."""

    executor: str
    assignments: tuple[ShardAssignment, ...]

    @property
    def shards(self) -> int:
        return len(self.assignments)


def plan_shards(
    array: OLAPArray, shards: int, executor: str = "local"
) -> ShardPlan:
    """Assign contiguous chunk ranges of ``array`` to ``shards`` workers."""
    return ShardPlan(
        executor=executor,
        assignments=tuple(
            ShardAssignment(shard_no, chunk_range.start, chunk_range.stop)
            for shard_no, chunk_range in enumerate(
                partition_chunks(array.geometry.n_chunks, shards)
            )
        ),
    )
