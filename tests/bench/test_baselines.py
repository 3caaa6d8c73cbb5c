"""The dominated baselines run through the harness, never the engine."""

import pytest

from repro.bench import bench_settings, build_cube_engine, query2_for, run_cold
from repro.data import SyntheticCubeConfig
from repro.errors import PlanError
from repro.olap import ExecutionOptions
from repro.serve import QueryService

TINY = SyntheticCubeConfig(
    name="tiny",
    dim_sizes=(6, 6, 6, 10),
    n_valid=150,
    chunk_shape=(3, 3, 3, 5),
    fanout1=3,
)
BASELINES = ("btree", "mbtree", "leftdeep")


def tiny_engine():
    return build_cube_engine(
        TINY, bench_settings("small"), fact_btrees=True, fact_mbtree=True
    )


@pytest.fixture(scope="module")
def engine():
    return tiny_engine()


@pytest.mark.parametrize("baseline", BASELINES)
def test_engine_routes_reject_a_baseline(engine, baseline):
    query = query2_for(TINY)
    unknown = f"unknown backend '{baseline}'"
    with pytest.raises(PlanError, match=unknown):
        engine.query(query, backend=baseline)
    with pytest.raises(PlanError, match=unknown):
        engine.explain(query, ExecutionOptions(backend=baseline))
    with QueryService(engine) as service:
        with pytest.raises(PlanError, match=unknown):
            service.execute(query, ExecutionOptions(backend=baseline))


def test_after_an_append_only_leftdeep_still_runs():
    engine = tiny_engine()
    query = query2_for(TINY)
    # a free cell whose first three keys (5, label "AA2") lie outside the
    # query's AA1 selection, so the answer stays what starjoin reads
    state = engine.cube(TINY.name)
    occupied = {row[:4] for row in state.fact.scan()}
    fresh = next(
        cell
        for cell in ((5, 5, 5, k) for k in range(10))
        if cell not in occupied
    )
    engine.append_facts(TINY.name, [fresh + (1,)])
    assert state.indices_stale
    for baseline in ("btree", "mbtree"):
        with pytest.raises(PlanError, match="append"):
            run_cold(engine, query, baseline)
    assert (
        run_cold(engine, query, "leftdeep").rows
        == run_cold(engine, query, "starjoin").rows
    )
