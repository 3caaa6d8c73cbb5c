"""A small fully-built synthetic cube shared by the OLAP-layer tests."""

import pytest

from repro.data import (
    SyntheticCubeConfig,
    cube_schema_for,
    generate_dimension_rows,
    generate_fact_rows,
)
from repro.olap import OlapEngine

CONFIG = SyntheticCubeConfig(
    name="cube",
    dim_sizes=(8, 6, 10),
    n_valid=200,
    chunk_shape=(4, 3, 5),
    fanout1=3,
    fanout2=2,
    seed=7,
)


def build_loaded():
    """``(engine, schema, fact rows)``: the cube loaded in a fresh engine."""
    engine = OlapEngine(page_size=1024, pool_bytes=1024 * 1024)
    schema = cube_schema_for(CONFIG)
    fact_rows = generate_fact_rows(CONFIG)
    engine.load_cube(
        schema,
        generate_dimension_rows(CONFIG),
        fact_rows,
        chunk_shape=CONFIG.chunk_shape,
        fact_btrees=True,
    )
    return engine, schema, fact_rows


@pytest.fixture(scope="module")
def loaded():
    return build_loaded()


@pytest.fixture
def engine(loaded):
    return loaded[0]


@pytest.fixture
def schema(loaded):
    return loaded[1]


@pytest.fixture
def fact_rows(loaded):
    return loaded[2]


def reference(fact_rows, config, group_dims, selected=None, drop_rest=True):
    """Oracle consolidation on raw fact rows.

    ``group_dims``: list of (dim position, level) with level 1 → hX1,
    2 → hX2, 0 → key.  ``selected``: dict dim position → set of hX1
    values that pass.
    """

    def level_value(d, key, level):
        if level == 0:
            return key
        if level == 1:
            return f"AA{key % config.fanout1}"
        return f"BB{(key % config.fanout1) % config.fanout2}"

    groups = {}
    for row in fact_rows:
        if selected and any(
            level_value(d, row[d], 1) not in values
            for d, values in selected.items()
        ):
            continue
        key = tuple(level_value(d, row[d], lvl) for d, lvl in group_dims)
        groups[key] = groups.get(key, 0) + row[-1]
    return sorted(k + (v,) for k, v in groups.items())
