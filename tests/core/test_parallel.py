"""Partitioned consolidation: the one walk over sub-ranges, merged exactly.

There is no partitioned-consolidation function any more (the §6 hook is
``scan_chunk_range`` over a sub-range + ``merge_from``, and the shard
``local``/``thread`` executors are what run it concurrently), so every
property the old ``consolidate_partitioned`` had is restated here over
those pieces: any partition count and every aggregate's sketch merge
to the direct consolidation, under real threads too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConsolidationSpec, consolidate
from repro.core.consolidate import ResultAccumulator, scan_chunk_range
from repro.errors import QueryError
from repro.shard import ThreadShardExecutor
from repro.shard.plan import partition_chunks
from repro.shard.worker import run_inline_task
from repro.util.stats import Counters

LEVEL1 = [ConsolidationSpec.level("h1")] * 3


def scan_partitioned(
    array, specs, partitions, aggregate="sum", kernel="vectorized",
    counters=None,
):
    """Sub-range scans into accumulators of their own, then merged."""
    merged = ResultAccumulator(array, specs, aggregate)
    ranges = partition_chunks(array.geometry.n_chunks, partitions)
    for chunk_range in ranges:
        partial = ResultAccumulator(array, specs, aggregate)
        scan_chunk_range(
            array, partial, chunk_range, kernel, counters=counters
        )
        merged.merge_from(partial)
    return merged.rows(), len(ranges)


def scan_threaded(array, specs, partitions, aggregate="sum", max_workers=None):
    """The same sub-range scans as thread-executor shard tasks.

    What the coordinator does for ``executor="thread"``, without an
    engine around the array: the scans read through a chunk cache, the
    one the engine gives every array it serves, whose I/O lock
    serializes the buffer pool under them.
    """
    from repro.storage import ChunkCache

    merged = ResultAccumulator(array, specs, aggregate)
    array.chunk_directory()
    tasks = [
        {
            "shard": shard,
            "array": array,
            "specs": specs,
            "aggregate": aggregate,
            "start": chunk_range.start,
            "stop": chunk_range.stop,
            "cold": False,
        }
        for shard, chunk_range in enumerate(
            partition_chunks(array.geometry.n_chunks, partitions)
        )
    ]
    own_cache = array.chunk_cache is None
    if own_cache:
        array.chunk_cache = ChunkCache()
    try:
        results = ThreadShardExecutor(max_workers=max_workers).map_tasks(
            run_inline_task, tasks
        )
    finally:
        if own_cache:
            array.chunk_cache = None
    totals = Counters()
    for result in results:
        if isinstance(result, BaseException):
            raise result
        merged.merge_from(result["accumulator"])
        totals.add_many(result["counters"])
    return merged.rows(), totals


def direct(array, specs, kernel, aggregate="sum"):
    """The unpartitioned oracle: ``consolidate`` itself, or one scan of
    every chunk through the per-cell reference kernel."""
    if kernel == "vectorized":
        return consolidate(array, specs, aggregate).rows
    return scan_partitioned(array, specs, 1, aggregate, kernel)[0]


def assert_rows_close(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a[:-1] == b[:-1]
        assert a[-1] == pytest.approx(b[-1])


@pytest.fixture(scope="module")
def engine():
    from tests.olap.conftest import build_loaded

    engine = build_loaded()[0]
    yield engine
    engine.close_shards()


def engine_query():
    from repro.olap import ConsolidationQuery

    return ConsolidationQuery.build(
        "cube", group_by={"dim0": "h01", "dim1": "h11"}
    )


class TestPartitionChunks:
    def test_partitions_cover_all_chunks(self):
        ranges = partition_chunks(10, 3)
        flat = [c for r in ranges for c in r]
        assert flat == list(range(10))

    def test_contiguous_and_balanced(self):
        ranges = partition_chunks(10, 3)
        sizes = [len(r) for r in ranges]
        assert max(sizes) - min(sizes) <= 1
        assert [r.start for r in ranges] == sorted(r.start for r in ranges)

    def test_more_partitions_than_chunks(self):
        ranges = partition_chunks(2, 8)
        assert len(ranges) == 2

    def test_single_partition(self):
        assert partition_chunks(5, 1) == [range(0, 5)]

    def test_bad_partition_count(self):
        with pytest.raises(QueryError):
            partition_chunks(5, 0)


@pytest.mark.parametrize("kernel", ["interpreted", "vectorized"])
class TestEquivalence:
    """Sub-range scans through either kernel merge to the direct
    consolidation."""

    @pytest.mark.parametrize("partitions", [1, 2, 3, 7, 100])
    def test_matches_direct_consolidation(self, cube, kernel, partitions):
        array, _ = cube
        rows, _ = scan_partitioned(array, LEVEL1, partitions, kernel=kernel)
        assert rows == consolidate(array, LEVEL1).rows

    def test_min_max_merge(self, cube, kernel):
        array, _ = cube
        for aggregate in ("min", "max", "count", "avg", "var", "stddev"):
            rows, _ = scan_partitioned(
                array, LEVEL1, 4, aggregate=aggregate, kernel=kernel
            )
            assert_rows_close(consolidate(array, LEVEL1, aggregate).rows, rows)


class TestVarianceMerge:
    def test_var_partitions_merge_exactly(self, cube):
        array, facts = cube
        specs = [ConsolidationSpec.drop()] * 2 + [ConsolidationSpec.level("h1")]
        direct = consolidate(array, specs, aggregate="var")
        rows, _ = scan_partitioned(array, specs, 5, aggregate="var")
        assert_rows_close(direct.rows, rows)

    def test_var_matches_numpy(self, cube):
        import numpy as np

        array, facts = cube
        specs = [ConsolidationSpec.drop()] * 3
        # fully collapsed: one group holding every measure
        result = consolidate(array, specs, aggregate="var")
        values = [f[3] for f in facts]
        assert result.rows == [(pytest.approx(np.var(values)),)]


@pytest.mark.parametrize("kernel", ["interpreted", "vectorized"])
class TestThreadedExecutor:
    """The thread executor: the oracle holds under real concurrency.

    ``kernel`` names the serial oracle's kernel; the shard tasks always
    run the vectorized one.
    """

    @pytest.mark.parametrize("partitions", [1, 2, 3, 7])
    def test_matches_direct_consolidation(self, cube, kernel, partitions):
        array, _ = cube
        rows, _ = scan_threaded(array, LEVEL1, partitions)
        assert rows == direct(array, LEVEL1, kernel)

    def test_matches_serial_executor(self, cube, kernel):
        array, _ = cube
        for aggregate in ("sum", "min", "max", "count", "avg", "var", "stddev"):
            serial, _ = scan_partitioned(
                array, LEVEL1, 4, aggregate=aggregate, kernel=kernel
            )
            threaded, _ = scan_threaded(array, LEVEL1, 4, aggregate=aggregate)
            assert_rows_close(serial, threaded)

    def test_max_workers_capped(self, cube, kernel):
        array, _ = cube
        rows, _ = scan_threaded(array, LEVEL1, 6, max_workers=2)
        assert rows == direct(array, LEVEL1, kernel)


class TestThreadedPlumbing:
    def test_counters_recorded(self, cube):
        # each task bills a bag of its own; their sum is the whole scan
        array, facts = cube
        _, totals = scan_threaded(array, LEVEL1, 3)
        assert totals.get("cells_scanned") == len(facts)
        assert (
            totals.get("chunks_read") + totals.get("empty_chunks_skipped")
            == array.geometry.n_chunks
        )

    def test_bad_executor(self, engine):
        with pytest.raises(QueryError, match="unknown executor"):
            engine.query(
                engine_query(), backend="array", shards=2, executor="fork"
            )

    def test_attached_chunk_cache_reused(self, engine):
        array = engine.cube("cube").array
        cache = array.chunk_cache
        assert cache is engine.db.chunks

        def run(cold):
            return engine.query(
                engine_query(),
                backend="array",
                shards=4,
                executor="thread",
                cold=cold,
            )

        # a cold thread fan-out reads through the cache the cold flush
        # emptied, so the warm pass reads every chunk out of it
        first = run(cold=True)
        hits = cache.counters.get("chunk_cache.hits")
        second = run(cold=False)
        assert second.rows == first.rows
        assert cache.counters.get("chunk_cache.hits") - hits == array.geometry.n_chunks
        assert second.stats.get("chunks_read", 0) == 0


class TestCounters:
    def test_partition_count_recorded(self, cube):
        array, facts = cube
        counters = Counters()
        _, partitions = scan_partitioned(array, LEVEL1, 3, counters=counters)
        assert partitions == 3
        assert counters.get("cells_scanned") == len(facts)

    def test_bad_kernel(self, cube):
        array, _ = cube
        with pytest.raises(QueryError):
            scan_chunk_range(
                array,
                ResultAccumulator(array, LEVEL1),
                range(array.geometry.n_chunks),
                "threads",
            )

    def test_merge_incompatible_accumulators(self, cube):
        array, _ = cube
        a = ResultAccumulator(array, LEVEL1)
        b = ResultAccumulator(
            array, [ConsolidationSpec.level("h2")] * 3
        )
        with pytest.raises(QueryError):
            a.merge_from(b)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 20), st.sampled_from(["sum", "count", "min"]))
def test_any_partitioning_is_exact(partitions, aggregate):
    from repro.core.builder import build_olap_array
    from repro.storage import BufferPool, FileManager, SimulatedDisk

    from .conftest import make_dimensions, make_facts

    fm = FileManager(
        BufferPool(SimulatedDisk(page_size=1024), capacity_bytes=512 * 1024)
    )
    facts = make_facts(density=0.4, seed=partitions)
    array = build_olap_array(fm, "c", make_dimensions(), facts, (3, 2, 4))
    direct = consolidate(array, LEVEL1, aggregate=aggregate)
    rows, _ = scan_partitioned(array, LEVEL1, partitions, aggregate=aggregate)
    assert rows == direct.rows
