"""Figure 7 — Query 2 on the 40×40×40×100-shaped array.

Same selectivity sweep as Figure 6 on the smaller (80-chunk, 10 %-dense)
array.  Paper shape: as Figure 6 — array ahead at high selectivity, the
relational algorithm catching up as S shrinks.
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

SETTINGS = bench_settings()
CONFIGS = selectivity_configs(SETTINGS.scale, fourth_dim="small")
SERIES = ["array", "bitmap"]


@pytest.fixture(scope="module")
def engines():
    return {c.name: build_cube_engine(c, SETTINGS) for c in CONFIGS}


@pytest.fixture(scope="module")
def table():
    t = ExperimentTable(
        "fig7",
        "Query 2 on the x100 array (selectivity sweep)",
        "S",
        expected="as fig6 on the 80-chunk array",
    )
    yield t
    t.save()


@pytest.mark.parametrize("backend", SERIES)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_fig7(benchmark, engines, table, config, backend):
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
