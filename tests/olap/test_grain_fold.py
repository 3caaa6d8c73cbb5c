"""A grain is the column fold of its own consolidation.

What one build costs is pinned as exact counters: a grain no fresh
grain covers is built by one walk of the base array, and the registry
delta around that build is its whole bill.  The figures are literals:
a change to how a grain folds must leave them where they are.
"""

from dataclasses import replace

import pytest

from repro.data import cube_schema_for, generate_dimension_rows, generate_fact_rows
from repro.olap import OlapEngine
from repro.serve import QueryService

from .conftest import CONFIG

#: the keys a walk of the whole array bills
BILLED = ("chunks_read", "chunk_bytes_read", "empty_chunks_skipped", "cells_scanned")


def grain_engine(config=CONFIG):
    """An engine over ``config``'s cube declaring grain ``by_h1``."""
    engine = OlapEngine(page_size=1024, pool_bytes=1024 * 1024)
    engine.load_cube(
        cube_schema_for(config),
        generate_dimension_rows(config),
        generate_fact_rows(config),
        chunk_shape=config.chunk_shape,
    )
    engine.declare_grain("cube", "by_h1", {"dim0": "h01", "dim1": "h11"})
    return engine


@pytest.mark.parametrize(
    "config, expected",
    [
        (
            CONFIG,
            {
                "chunks_read": 8,
                "chunk_bytes_read": 2440,
                "empty_chunks_skipped": 0,
                "cells_scanned": 200,
            },
        ),
        # sparse enough that the walk skips chunks no cell is stored in
        (
            replace(CONFIG, n_valid=6),
            {
                "chunks_read": 4,
                "chunk_bytes_read": 92,
                "empty_chunks_skipped": 4,
                "cells_scanned": 6,
            },
        ),
    ],
    ids=["dense", "sparse"],
)
def test_a_grain_build_walks_the_array_once(config, expected):
    engine = grain_engine(config)
    array = engine.cube("cube").array
    with QueryService(engine) as service:
        array.invalidate_caches()
        before = engine.db.metrics.merged_snapshot()
        with service.engine_access("cube") as state:
            engine.grains.rows_for(state, "by_h1")
        after = engine.db.metrics.merged_snapshot()
    bill = {key: after.get(key, 0) - before.get(key, 0) for key in BILLED}
    assert bill == expected


@pytest.mark.parametrize("aggregate", ["var", "stddev"])
def test_a_moment_column_is_never_read_from_a_grain(aggregate):
    """A grain keeps no float64 moment column: asked for one, the
    re-roll finds no column of that spec rather than reading a sum."""
    engine = grain_engine()
    with QueryService(engine) as service:
        with service.engine_access("cube") as state:
            grain = engine.grains.rows_for(state, "by_h1")
    with pytest.raises(ValueError):
        engine.grains.answer(grain, [("dim0", "h01")], [], aggregate, [0])
