#!/usr/bin/env python
"""Quickstart: define a cube, load it, and run a consolidation.

Builds the paper's running example — retail sales over product, store
and time dimensions — into both physical designs (the relational star
schema and the OLAP Array ADT) and runs the §4.1 consolidation through
each backend, showing that they agree and what each one cost.

Run:  python examples/quickstart.py
"""

from repro import (
    ConsolidationQuery,
    CubeSchema,
    DimensionDef,
    MeasureDef,
    OlapEngine,
)
from repro.bench import run_cold

# -- 1. The logical model (§2): dimensions with hierarchies + a measure ----

schema = CubeSchema(
    name="sales",
    dimensions=(
        DimensionDef(
            "product",
            key="pid",
            levels=(("pname", "str:16"), ("type", "str:12")),
        ),
        DimensionDef(
            "store",
            key="sid",
            levels=(("city", "str:16"), ("state", "str:8")),
        ),
        DimensionDef("time", key="tid", levels=(("month", "int32"),)),
    ),
    measures=(MeasureDef("volume"),),
)

# -- 2. Dimension and fact data -------------------------------------------

products = [
    (0, "snow shovel", "hardware"),
    (1, "sun hat", "clothing"),
    (2, "beach towel", "clothing"),
    (3, "ice scraper", "hardware"),
]
stores = [
    (0, "Madison", "WI"),
    (1, "Milwaukee", "WI"),
    (2, "San Diego", "CA"),
]
months = [(t, t + 1) for t in range(6)]  # tid -> month number

# A store in Madison is unlikely to sell beach clothing in January (§2):
# the cube is sparse, so only some (product, store, time) cells exist.
facts = [
    (0, 0, 0, 35),  # snow shovels, Madison, January
    (0, 1, 0, 28),
    (3, 0, 0, 50),
    (3, 1, 1, 22),
    (1, 2, 0, 40),  # sun hats sell in San Diego year-round
    (1, 2, 3, 44),
    (2, 2, 3, 61),
    (1, 0, 5, 12),  # ... and in Madison only by June
    (2, 1, 5, 9),
]

# -- 3. Load both physical designs -----------------------------------------

engine = OlapEngine()  # defaults: 8 KiB pages, 16 MB buffer pool
engine.load_cube(
    schema,
    dimension_rows={"product": products, "store": stores, "time": months},
    fact_rows=facts,
)

# -- 4. A consolidation: sales volume by product type and store state ------

query = ConsolidationQuery.build(
    "sales", group_by={"product": "type", "store": "state"}
)

print("sum(volume) GROUP BY product.type, store.state\n")
# the engine routes array, starjoin and bitmap; run_cold also runs the
# paper's dominated baselines, such as the left-deep hash-join plan
for backend in ("array", "starjoin", "leftdeep"):
    result = run_cold(engine, query, backend)
    print(f"[{backend:8s}]  cost={result.cost_s * 1000:7.2f} ms  rows:")
    for row in result.rows:
        print(f"    {row[0]:<10} {row[1]:<4} {row[2]}")
    print()

# -- 5. The same query as SQL text -----------------------------------------

sql = """
    select sum(volume), product.type, store.state
    from sales, product, store
    where sales.pid = product.pid and sales.sid = store.sid
    group by type, state
"""
result = engine.sql("sales", sql, backend="auto")
print(f"[sql->auto] planner chose {result.backend!r}; {len(result)} rows")

# -- 6. Point lookups and slices on the array ADT ---------------------------

array = engine.cube("sales").array
cell = array.get_cell((1, 2, 0))  # sun hats, San Diego, January
print(f"\narray.get_cell(sun hat, San Diego, Jan) = {cell[0]}")
print(f"array density: {array.density:.2%} of "
      f"{array.geometry.logical_cells} logical cells")
print("slice time=tid 0:")
for keys, measures in array.slice_dim("time", 0):
    print(f"    {keys} -> {int(measures[0])}")
