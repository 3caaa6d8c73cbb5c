"""A load's working set is narrow and short-lived.

``load_cube`` checks everything before it creates anything, so each
design's checked input (key indices, bitmap codes, packed records,
sorted cells and values) exists in memory before the first page is
written.  Each piece is held in the narrowest dtype that fits and
dropped as soon as its design is written, so what a load needs beyond
what it stores is a small number of bytes per fact row.

Measured with ``tracemalloc`` at ``paper`` scale (640 000 rows, the
benchmark's designs and bitmaps): peak traced bytes minus the bytes
still held when ``load_cube`` returns.  With `intp` indices and codes
and every plan kept until the load returned, this was ≈ 104 B a row with
both designs and ≈ 75 with the array alone; it is now ≈ 25 and ≈ 23.
"""

import tracemalloc

import pytest

from repro.bench import bench_settings
from repro.data import (
    cube_schema_for,
    dataset1,
    generate_dimension_rows,
    generate_fact_rows,
)
from repro.olap import OlapEngine

#: transient bytes a load may hold per fact row, beyond what it stores
CEILING_B_PER_ROW = 32

CONFIG = dataset1("paper")[1]  # the x100 cube


@pytest.fixture(scope="module")
def inputs():
    return generate_dimension_rows(CONFIG), generate_fact_rows(CONFIG)


def transient_b_per_row(inputs, backends):
    dimension_rows, fact_rows = inputs
    settings = bench_settings("paper")
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
            bitmap_attrs=(
                [(f"dim{d}", f"h{d}1") for d in range(CONFIG.ndim)]
                if "relational" in backends
                else "all"
            ),
        )
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - held) / len(fact_rows)


@pytest.mark.parametrize("backends", [("array", "relational"), ("array",)])
def test_load_transient_is_bounded_per_fact_row(inputs, backends):
    assert transient_b_per_row(inputs, backends) <= CEILING_B_PER_ROW
