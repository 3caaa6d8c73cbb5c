"""Ablation abl5 — chunk-ordered vs naive cross-product enumeration (§4.2).

The paper generates cross-product elements "according to the chunk
number" so each chunk is read once, in disk order: the engine's
``array`` backend.  The naive order streams elements in global index
order, re-deriving (and re-fetching, modulo the buffer pool) the chunk
per element: the harness's ``naive`` baseline
(:mod:`repro.bench.baselines`), which no planner choice reaches.

Expected shape: chunk order strictly cheaper; the gap grows with the
cross-product size.
"""

import pytest

from repro.bench import (
    ExperimentTable,
    bench_settings,
    build_cube_engine,
    query2_for,
    run_cold,
)
from repro.data import selectivity_configs

# Low fanouts make the cross-product large, so the naive order pays a
# chunk fetch + decode per element instead of one per chunk.
SETTINGS = bench_settings()
CONFIGS = selectivity_configs(
    SETTINGS.scale, fourth_dim="small", fanouts=(2, 3)
)
#: each series' label and what runs it
ORDERS = {"chunk": "array", "naive": "naive"}


@pytest.fixture(scope="module")
def engines():
    return {c.name: build_cube_engine(c, SETTINGS) for c in CONFIGS}


@pytest.fixture(scope="module")
def table():
    t = ExperimentTable(
        "abl5",
        "Cross-product enumeration order in select-consolidate",
        "fanout",
        expected="chunk order < naive order",
    )
    yield t
    t.save()


@pytest.mark.parametrize("order", list(ORDERS))
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"f{c.fanout1}")
def test_ablation_chunk_order(benchmark, engines, table, config, order):
    engine = engines[config.name]
    query = query2_for(config)
    result = benchmark.pedantic(
        lambda: run_cold(engine, query, ORDERS[order]),
        rounds=2,
        iterations=1,
    )
    table.add(order, config.fanout1, result)
    benchmark.extra_info["cost_s"] = result.cost_s
