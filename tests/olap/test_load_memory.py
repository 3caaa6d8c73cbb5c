"""A cube load's transient memory is bounded per fact row.

During a load each byte of a fact row exists once, beside the caller's
columns: the fact pages are packed straight from the columns, and the
array is planned as a row permutation, each cell's offset in its chunk
and the chunk bounds, the values gathered chunk by chunk.  Measured
under ``tracemalloc`` at ``medium`` scale (80 000 rows): the load's
traced peak less what the load retains.  With a packed copy of the
fact table and the array plan's sorted ``int64`` cell keys and value
table this read ≈ 22 B a row for both designs, ≈ 19.5 array-only and
≈ 22 relational-only; without them ≈ 9, ≈ 10 and ≈ 3.

Also here: the declared ranges are checked a slab of rows at a time,
so a value that does not fit in the input's last slab still rejects
the load before anything is created.
"""

import tracemalloc

import pytest

from repro.bench.harness import bench_settings
from repro.data import (
    cube_schema_for,
    dataset1,
    generate_dimension_rows,
    generate_fact_rows,
)
from repro.errors import SchemaError
from repro.olap import OlapEngine
from repro.olap.model import CubeSchema, DimensionDef, MeasureDef
from repro.util.records import SLAB_ROWS

CONFIG = dataset1("medium")[1]

#: transient bytes a fact row may cost, by the designs loaded
BOUNDS = {("array", "relational"): 15, ("array",): 14, ("relational",): 12}


@pytest.fixture(scope="module")
def medium_rows():
    return generate_dimension_rows(CONFIG), generate_fact_rows(CONFIG)


@pytest.mark.parametrize("backends", BOUNDS)
def test_transient_bytes_per_row(medium_rows, backends):
    dimension_rows, fact_rows = medium_rows
    settings = bench_settings("medium")
    engine = OlapEngine(
        page_size=settings.page_size,
        pool_bytes=settings.pool_bytes,
        disk_model=settings.disk_model,
    )
    tracemalloc.start()
    try:
        engine.load_cube(
            cube_schema_for(CONFIG),
            dimension_rows,
            fact_rows,
            chunk_shape=CONFIG.chunk_shape,
            backends=backends,
            bitmap_attrs=[(f"dim{d}", f"h{d}1") for d in range(CONFIG.ndim)],
        )
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fact_rows) == 80_000
    assert (peak - retained) / len(fact_rows) <= BOUNDS[backends]


@pytest.mark.parametrize("backends", [("array", "relational"), ("relational",)])
def test_a_bad_value_in_the_last_slab_creates_nothing(backends):
    schema = CubeSchema(
        name="slabs",
        dimensions=(DimensionDef("d", key="k", key_type="int32", levels=()),),
        measures=(MeasureDef("m", "int64"),),
    )
    keys = list(range(2 * SLAB_ROWS + 5)) + [2**31]  # past int32, in the third slab
    engine = OlapEngine(page_size=1024, pool_bytes=256 * 1024)
    before = engine.db.table_names(), engine.db.index_names(), engine.db.fm.names()
    with pytest.raises(SchemaError):
        engine.load_cube(
            schema, {"d": [(k,) for k in keys]}, [(k, 1) for k in keys], backends=backends
        )
    assert (engine.db.table_names(), engine.db.index_names(), engine.db.fm.names()) == before
    engine.load_cube(
        schema, {"d": [(k,) for k in keys[:-1]]}, [(k, 1) for k in keys[:-1]],
        backends=backends,
    )
    assert len(engine.cube("slabs").fact) == len(keys) - 1
