"""Tests for the experiment harness."""

import pytest

from repro.bench import (
    aggregate_stats,
    bench_settings,
    build_cube_engine,
    query1_for,
    query2_for,
    query3_for,
    run_cold,
)
from repro.data import SyntheticCubeConfig

TINY = SyntheticCubeConfig(
    name="tiny",
    dim_sizes=(6, 6, 6, 10),
    n_valid=150,
    chunk_shape=(3, 3, 3, 5),
    fanout1=3,
)


class TestSettings:
    def test_scales_have_settings(self):
        for scale in ("small", "medium", "paper"):
            settings = bench_settings(scale)
            assert settings.page_size > 0
            assert settings.pool_bytes > settings.page_size
            assert settings.disk_model.seek_ms == 10.0

    def test_page_size_grows_with_scale(self):
        assert (
            bench_settings("small").page_size
            < bench_settings("medium").page_size
            < bench_settings("paper").page_size
        )

    def test_env_default_is_medium(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert bench_settings().scale == "medium"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert bench_settings().scale == "small"


class TestQueries:
    def test_query1_groups_every_dimension(self):
        q = query1_for(TINY)
        assert q.group_dims == ("dim0", "dim1", "dim2", "dim3")
        assert q.selections == ()

    def test_query2_selects_every_dimension(self):
        q = query2_for(TINY)
        assert len(q.selections) == 4
        assert all(s.values == ("AA1",) for s in q.selections)

    def test_query3_drops_the_fourth_dimension(self):
        q = query3_for(TINY)
        assert q.group_dims == ("dim0", "dim1", "dim2")
        assert len(q.selections) == 3


class TestBuildAndRun:
    @pytest.fixture(scope="class")
    def engine(self):
        return build_cube_engine(TINY, bench_settings("small"))

    def test_both_designs_built(self, engine):
        state = engine.cube("tiny")
        assert state.array is not None
        assert state.fact is not None
        assert len(state.fact) == TINY.n_valid

    def test_bitmaps_on_h1_only(self, engine):
        state = engine.cube("tiny")
        assert state.bitmap_attrs == {
            (f"dim{d}", f"h{d}1") for d in range(4)
        }

    def test_run_cold_zeroes_then_measures(self, engine):
        result = run_cold(engine, query1_for(TINY), "array")
        assert result.sim_io_s > 0
        assert result.rows

    def test_backends_agree_on_all_three_queries(self, engine):
        for query in (query1_for(TINY), query2_for(TINY), query3_for(TINY)):
            array = run_cold(engine, query, "array")
            relational = run_cold(
                engine, query, "bitmap" if query.selections else "starjoin"
            )
            assert array.rows == relational.rows

    def test_array_only_build(self):
        engine = build_cube_engine(
            TINY, bench_settings("small"), backends=("array",)
        )
        assert engine.cube("tiny").fact is None

    def test_aggregate_stats_sums_runs(self, engine):
        query = query1_for(TINY)
        a = run_cold(engine, query, "array")
        b = run_cold(engine, query, "array")
        total = aggregate_stats([a, b])
        assert total["pages_read"] == (
            a.stats["pages_read"] + b.stats["pages_read"]
        )


class TestGoldenCounters:
    """A cold Query 1 at ``small`` scale costs exactly what it always has.

    The vectorized kernel and the storage read path are tuned for CPU
    time only; which pages are read, in which order, and how many cells
    are folded must not move.  The values are what the commit before the
    offset-native kernel produced; the per-cell reference kernel reads
    exactly the same pages.
    """

    GOLDEN = {
        "pages_read": 558,
        "seeks": 27,
        "bytes_read": 71424,
        "pool_misses": 558,
        "pool_hits": 72,
        "chunks_read": 80,
        "cells_scanned": 5120,
    }

    @pytest.mark.parametrize("kernel", ["vectorized", "interpreted"])
    def test_cold_query1_counters_are_pinned(self, kernel):
        from repro.core.consolidate import (
            ConsolidationSpec,
            ResultAccumulator,
            scan_chunk_range,
        )
        from repro.data.datasets import dataset1
        from repro.util.stats import counter_delta

        config = dataset1("small")[1]
        engine = build_cube_engine(config, bench_settings("small"))
        if kernel == "vectorized":
            stats = engine.query(query1_for(config), backend="array").stats
        else:  # the same cold scan by hand, through the reference kernel
            array = engine.cube(config.name).array
            array.invalidate_caches()
            engine.db.cold_cache()
            before = engine.db.metrics.snapshot_by_source()
            specs = [
                ConsolidationSpec.level(f"h{d}1") for d in range(config.ndim)
            ]
            scan_chunk_range(
                array,
                ResultAccumulator(array, specs),
                range(array.geometry.n_chunks),
                "interpreted",
            )
            stats = counter_delta(before, engine.db.metrics.snapshot_by_source())
        assert {name: stats.get(name) for name in self.GOLDEN} == self.GOLDEN
        assert stats["sim_io_s"] == pytest.approx(1.2609765625, rel=1e-9)


class TestGoldenDirections:
    """Which direction the vectorized selection kernel takes is a count.

    A cold one-dimension ``hX1`` selection at ``small`` scale offers each
    chunk ≈ 160 candidates against ≈ 64 stored cells, so every chunk is
    filtered and nothing is binary-searched; Query 2 offers one
    candidate per chunk, so every chunk is probed.  A rule that stopped
    firing would show here as a count, where a timing never would.  The
    I/O is the walk's, whatever the kernel does with a chunk: the values
    are what the commit before the direction rule (PR 16) read.
    """

    ONE_DIMENSION = {
        "cells_probed": 0,
        "cells_scanned": 624,
        "cross_product_size": 6400,
        "chunks_read": 40,
        "pages_read": 289,
        "seeks": 16,
    }
    QUERY2 = {
        "cells_probed": 10,
        "cells_scanned": 2,
        "cross_product_size": 10,
        "chunks_read": 10,
        "pages_read": 108,
        "seeks": 27,
    }

    @staticmethod
    def _cold_stats(query_for, golden):
        from repro.data.datasets import dataset1

        config = dataset1("small")[1]
        engine = build_cube_engine(config, bench_settings("small"))
        result = engine.query(query_for(config), backend="array")
        return {name: result.stats.get(name, 0) for name in golden}

    def test_one_dimension_selection_filters_every_chunk(self):
        from repro.olap import ConsolidationQuery, SelectionPredicate

        def one_dimension(config):
            return ConsolidationQuery.build(
                config.name,
                group_by={"dim1": "h11"},
                selections=[SelectionPredicate.in_list("dim0", "h01", "AA0")],
            )

        assert (
            self._cold_stats(one_dimension, self.ONE_DIMENSION)
            == self.ONE_DIMENSION
        )

    def test_query2_probes_every_chunk(self):
        assert self._cold_stats(query2_for, self.QUERY2) == self.QUERY2


class TestGoldenRelationalCounters:
    """The relational baselines read exactly the pages they always have.

    A cold Query 1 on the two full-scan plans, and the one-dimension
    ``h01 = AA0`` selection of :class:`TestGoldenDirections` (624 fact
    tuples) on the three positional-fetch plans, at ``small`` scale.
    How the fetched tuples are aggregated is CPU only: which pages are
    read, in which order, and how many tuples are fetched must not move.
    The values are what the per-tuple aggregation loops read.
    """

    KEYS = (
        "pages_read",
        "seeks",
        "pool_hits",
        "pool_misses",
        "fact_pages_scanned",
        "fact_bitmap_pages",
        "fact_tuples_fetched",
        "fact_tuple_gets",
        "selected_tuples",
    )
    GOLDEN = {
        "starjoin": ((1050, 11, 0, 1050, 1024, 0, 0, 0, 0), 1.9596372767815353),
        "leftdeep": ((1050, 11, 0, 1050, 1024, 0, 0, 0, 0), 1.9290652901743925),
        "bitmap": ((499, 254, 1, 499, 0, 490, 624, 0, 624), 1.8924441964282863),
        "btree": ((624, 259, 135, 624, 0, 0, 0, 624, 624), 2.116367187499222),
        "mbtree": ((1155, 272, 137, 1155, 0, 0, 0, 624, 624), 3.203038504461432),
    }

    @pytest.fixture(scope="class")
    def engine(self):
        from repro.data.datasets import dataset1

        config = dataset1("small")[1]
        return config, build_cube_engine(
            config, bench_settings("small"), fact_btrees=True, fact_mbtree=True
        )

    @pytest.mark.parametrize("backend", list(GOLDEN))
    def test_cold_counters_are_pinned(self, engine, backend):
        from repro.olap import ConsolidationQuery, SelectionPredicate

        config, engine = engine
        if backend in ("starjoin", "leftdeep"):
            query = query1_for(config)
        else:
            query = ConsolidationQuery.build(
                config.name,
                group_by={"dim1": "h11"},
                selections=[SelectionPredicate.in_list("dim0", "h01", "AA0")],
            )
        stats = run_cold(engine, query, backend).stats
        counts, sim_io_s = self.GOLDEN[backend]
        assert {name: stats.get(name, 0) for name in self.KEYS} == dict(
            zip(self.KEYS, counts)
        )
        assert stats["sim_io_s"] == pytest.approx(sim_io_s, rel=1e-9)
