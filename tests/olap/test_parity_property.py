"""Property test: every backend answers every random query identically.

This is the repository's strongest oracle: random cubes, random
group-bys (mixed hierarchy levels, dropped dimensions), random
selections — the §4.1/§4.2 array algorithms, the §4.3 Starjoin, the
§4.5 bitmap algorithm, the B-tree baseline and the left-deep plan must
all return the same sorted rows.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import run_cold
from repro.data import (
    SyntheticCubeConfig,
    cube_schema_for,
    generate_dimension_rows,
    generate_fact_rows,
)
from repro.olap import ConsolidationQuery, OlapEngine, SelectionPredicate


def build_engine(seed: int) -> tuple[OlapEngine, SyntheticCubeConfig]:
    config = SyntheticCubeConfig(
        name="p",
        dim_sizes=(7, 5, 9),
        n_valid=120,
        chunk_shape=(3, 2, 4),
        fanout1=3,
        fanout2=2,
        seed=seed,
    )
    engine = OlapEngine(page_size=1024, pool_bytes=1024 * 1024)
    engine.load_cube(
        cube_schema_for(config),
        generate_dimension_rows(config),
        generate_fact_rows(config),
        chunk_shape=config.chunk_shape,
        fact_btrees=True,
    )
    return engine, config


_ENGINE_CACHE: dict[int, tuple] = {}


def cached_engine(seed: int):
    if seed not in _ENGINE_CACHE:
        _ENGINE_CACHE.clear()  # keep at most one engine alive
        _ENGINE_CACHE[seed] = build_engine(seed)
    return _ENGINE_CACHE[seed]


@st.composite
def queries(draw):
    grouped_dims = draw(
        st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=3, unique=True)
    )
    group_by = {}
    for d in grouped_dims:
        attr = draw(st.sampled_from([f"d{d}", f"h{d}1", f"h{d}2"]))
        group_by[f"dim{d}"] = attr
    selections = []
    for d in draw(
        st.lists(st.sampled_from([0, 1, 2]), max_size=2, unique=True)
    ):
        if draw(st.booleans()):
            values = draw(
                st.lists(
                    st.sampled_from(["AA0", "AA1", "AA2"]),
                    min_size=1,
                    max_size=2,
                    unique=True,
                )
            )
            selections.append(
                SelectionPredicate(f"dim{d}", f"h{d}1", values=tuple(values))
            )
        else:
            low = draw(st.integers(0, 6))
            high = draw(st.integers(low, 8))
            selections.append(
                SelectionPredicate(f"dim{d}", f"d{d}", low=low, high=high)
            )
    return ConsolidationQuery.build("p", group_by, selections)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 3), query=queries())
def test_all_backends_agree(seed, query):
    engine, _ = cached_engine(seed)
    backends = ["array", "starjoin"]
    baselines = ["leftdeep"]
    if query.selections:
        baselines.append("btree")
        # bitmap indices exist only on level attributes, not keys
        if all(s.attribute.startswith("h") for s in query.selections):
            backends.append("bitmap")
    rows = {}
    for backend in backends:
        rows[backend] = engine.query(query, backend=backend, cold=False).rows
    for baseline in baselines:  # the harness runs these, cold
        rows[baseline] = run_cold(engine, query, baseline).rows
    rows["array-sharded"] = engine.query(
        query, backend="array", shards=2, cold=False
    ).rows
    baseline = rows.pop("starjoin")
    for backend, answer in rows.items():
        assert answer == baseline, backend


@settings(max_examples=10, deadline=None)
@given(query=queries())
def test_naive_order_agrees(query):
    engine, _ = cached_engine(0)
    chunked = engine.query(query, backend="array", cold=False).rows
    naive = engine.query(
        query, backend="array", order="naive", cold=False
    ).rows
    assert naive == chunked
