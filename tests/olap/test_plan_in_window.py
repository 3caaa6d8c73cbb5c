"""A query is planned once, inside the window it is billed in.

On the ``small`` cube: a stale covering grain is built by the query
that chose it, and that build is the query's — in its ``sim_io_s``, its
stats, its ``query`` span and its analyzed plan's actuals.  A plain
EXPLAIN reads its estimates off resident statistics, so it reads no
page at all, even with every cache cold.
"""

import pytest

from repro.bench import bench_settings, build_cube_engine
from repro.data.datasets import dataset1
from repro.obs.tracer import Tracer, thread_tracing
from repro.olap import ConsolidationQuery, SelectionPredicate

CONFIG = dataset1("small")[1]


@pytest.fixture
def engine():
    return build_cube_engine(CONFIG, bench_settings("small"))


def one_value_cut():
    return ConsolidationQuery.build(
        CONFIG.name,
        group_by={"dim1": "h11"},
        selections=[SelectionPredicate.in_list("dim0", "h01", "AA0")],
    )


def stale_grain(engine):
    """Declare a grain covering :func:`one_value_cut`; nothing builds it."""
    engine.declare_grain(CONFIG.name, "by_h1", {"dim0": "h01", "dim1": "h11"})


def non_empty_chunks(engine):
    array = engine.cube(CONFIG.name).array
    return sum(1 for _, _, stored in array.chunk_directory() if stored)


def test_a_stale_grain_query_bills_its_inline_build(engine):
    stale_grain(engine)
    engine.db.cold_cache()  # the load's dirty pages: not this query's
    before = engine.db.metrics.merged_snapshot()
    result = engine.query(one_value_cut(), cold=True)
    after = engine.db.metrics.merged_snapshot()
    assert result.backend == "rollup"
    assert result.sim_io_s > 0
    assert result.sim_io_s == pytest.approx(
        after["sim_io_s"] - before["sim_io_s"], rel=1e-12
    )
    # the build walked every stored chunk; answering from it reads none
    assert result.stats["chunks_read"] == non_empty_chunks(engine)
    assert result.plan.backend == "rollup"


def test_explain_analyze_of_a_stale_grain_includes_the_build(engine):
    stale_grain(engine)
    with thread_tracing(Tracer()) as outer:
        plan, result = engine.explain_analyze(one_value_cut(), cold=True)
    assert plan.backend == "rollup"
    (root,) = outer.roots
    assert root.name == "query"
    assert [child.name for child in root.children][0] == "rollup.build"
    assert plan.root.actuals["chunks_read"] == non_empty_chunks(engine)
    assert plan.sim_io_s == result.sim_io_s > 0
    assert plan.root.actuals["sim_io_s"] == pytest.approx(result.sim_io_s)


def test_a_cold_plain_explain_reads_no_page(engine):
    engine.cube(CONFIG.name).array.invalidate_caches()
    engine.db.cold_cache()
    before = engine.db.metrics.merged_snapshot()
    plan = engine.explain(one_value_cut())
    after = engine.db.metrics.merged_snapshot()
    assert plan.backend == "array"
    assert after.get("pages_read", 0) - before.get("pages_read", 0) == 0
    # the estimates are still the directory's: the walk prunes as priced
    probe = next(n for n in plan.root.walk() if n.op == "array.probe_chunks")
    assert probe.estimates["chunks_read"] > 0
