"""Figure 6 — Query 2 on the 40×40×40×1000-shaped array.

Selection on all four dimensions' hX1 attributes with the per-dimension
fanout swept 2…10, so the star-join selectivity S sweeps 0.0625 down to
0.0001.  Series: the §4.2 array algorithm vs the §4.5 bitmap + fact-file
algorithm.

Paper shape: the array is faster while S > 0.00024; the relational cost
falls steeply as selectivity shrinks (fewer tuples to fetch) while the
array cost stays chunk-bound.
"""

import pytest

from repro.bench import (
    ExperimentTable,
    bench_settings,
    build_cube_engine,
    query2_for,
    run_cold,
    run_cold_traced,
    write_trace,
)
from repro.data import selectivity_configs

SETTINGS = bench_settings()
CONFIGS = selectivity_configs(SETTINGS.scale, fourth_dim="large")
SERIES = ["array", "bitmap"]


@pytest.fixture(scope="module")
def engines():
    return {c.name: build_cube_engine(c, SETTINGS) for c in CONFIGS}


@pytest.fixture(scope="module")
def table():
    t = ExperimentTable(
        "fig6",
        "Query 2 on the x1000 array (selectivity sweep)",
        "S",
        expected=(
            "array < bitmap for S > ~0.00024; bitmap cost falls steeply "
            "with S while array stays chunk-bound"
        ),
    )
    yield t
    t.save()


@pytest.mark.parametrize("backend", SERIES)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_fig6(benchmark, engines, table, config, backend):
    engine = engines[config.name]
    query = query2_for(config)
    result = benchmark.pedantic(
        lambda: run_cold(engine, query, backend),
        rounds=2,
        iterations=1,
    )
    selectivity = round((1 / config.fanout1) ** 4, 6)
    table.add(backend, selectivity, result)
    benchmark.extra_info["cost_s"] = result.cost_s
    benchmark.extra_info["selectivity"] = selectivity


def test_fig6_trace_artifact(benchmark, engines):
    """One traced cold run per series, saved next to the cost table."""
    config = CONFIGS[0]
    engine = engines[config.name]
    query = query2_for(config)
    spans = benchmark.pedantic(
        lambda: [
            run_cold_traced(engine, query, backend)[1] for backend in SERIES
        ],
        rounds=1,
        iterations=1,
    )
    write_trace("fig6", spans)
