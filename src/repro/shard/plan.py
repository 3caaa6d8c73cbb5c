"""Shard planning: chunk-range assignments over the chunk directory.

A shard plan is pure metadata: it partitions ``range(n_chunks)`` into
contiguous near-equal ranges (:func:`partition_chunks`) and prices each
range from the chunk meta directory alone
(:func:`repro.core.consolidate.estimate_chunk_range`, the same pricing
the unsharded array EXPLAIN uses): non-empty chunks, stored bytes, valid
cells and — with a selection's final index lists — only the chunks the
walk itself would visit, their cell counts scaled by the within-box
selectivity and their probes decided by the kernel's own direction rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.consolidate import allowed_masks, estimate_chunk_range
from repro.core.olap_array import OLAPArray
from repro.errors import QueryError
from repro.util.stats import Counters


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
    """One shard's contiguous chunk range plus its catalog estimates."""

    shard_no: int
    start: int
    stop: int
    est_chunks: int
    est_cells: int
    est_bytes: int
    #: cross-product elements a vectorized selection will binary-search
    est_probed: int

    @property
    def chunk_range(self) -> range:
        return range(self.start, self.stop)

    @property
    def n_chunks(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ShardPlan:
    """The coordinator's chunk-range assignment for one query."""

    cube: str
    generation: int
    n_chunks: int
    executor: str
    assignments: tuple[ShardAssignment, ...]

    @property
    def shards(self) -> int:
        return len(self.assignments)

    @property
    def est_chunks(self) -> int:
        return sum(a.est_chunks for a in self.assignments)

    @property
    def est_cells(self) -> int:
        return sum(a.est_cells for a in self.assignments)

    @property
    def est_probed(self) -> int:
        return sum(a.est_probed for a in self.assignments)

    def ranges_token(self) -> str:
        """Compact ``start:stop`` list, e.g. ``0:16,16:32`` (fingerprints,
        plan details)."""
        return ",".join(f"{a.start}:{a.stop}" for a in self.assignments)


def plan_shards(
    array: OLAPArray,
    shards: int,
    executor: str = "local",
    cube: str = "",
    generation: int = 0,
    allowed: list[list[int]] | None = None,
    counters: Counters | None = None,
) -> ShardPlan:
    """Assign contiguous chunk ranges to ``shards`` workers.

    ``allowed`` (the §4.2 per-dimension final index lists) refines the
    per-shard estimates to selection-overlapping chunks only — the same
    grid pruning the workers' scan applies, so a cold sharded
    run's actual ``chunks_read`` matches its estimate exactly.
    ``counters`` is billed the directory load planning may cause.
    """
    masks = allowed_masks(array, allowed) if allowed is not None else None
    assignments = []
    for shard_no, chunk_range in enumerate(
        partition_chunks(array.geometry.n_chunks, shards)
    ):
        estimate = estimate_chunk_range(array, chunk_range, masks, counters)
        assignments.append(
            ShardAssignment(
                shard_no=shard_no,
                start=chunk_range.start,
                stop=chunk_range.stop,
                est_chunks=estimate["chunks_read"],
                est_cells=estimate["cells_scanned"],
                est_bytes=estimate["chunk_bytes_read"],
                est_probed=estimate["cells_probed"],
            )
        )
    return ShardPlan(
        cube=cube,
        generation=generation,
        n_chunks=array.geometry.n_chunks,
        executor=executor,
        assignments=tuple(assignments),
    )
