"""The baselines run through the harness, never the engine."""

import pytest

from repro.bench import (
    bench_settings,
    build_cube_engine,
    query1_for,
    query2_for,
    run_cold,
)
from repro.data import SyntheticCubeConfig
from repro.errors import PlanError
from repro.serve import QueryService

TINY = SyntheticCubeConfig(
    name="tiny",
    dim_sizes=(6, 6, 6, 10),
    n_valid=150,
    chunk_shape=(3, 3, 3, 5),
    fanout1=3,
)
BASELINES = ("btree", "mbtree", "leftdeep", "naive")


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
        engine.explain(query, baseline)
    with QueryService(engine) as service:
        with pytest.raises(PlanError, match=unknown):
            service.execute(query, baseline)


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


def test_naive_differs_from_array_only_in_probe_order(engine):
    selective = query2_for(TINY)
    naive = run_cold(engine, selective, "naive")
    chunked = run_cold(engine, selective, "array")
    assert naive.backend == "naive"
    assert naive.rows == chunked.rows
    # every cross-product element is probed, each re-deriving its chunk
    assert naive.stats["cells_probed"] >= chunked.stats["cells_probed"]
    # without a selection there is nothing to probe: the same §4.1 scan
    naive, chunked = (
        run_cold(engine, query1_for(TINY), name) for name in ("naive", "array")
    )
    assert naive.rows == chunked.rows
    assert naive.stats == chunked.stats
