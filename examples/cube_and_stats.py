#!/usr/bin/env python
"""Beyond the paper's evaluation: CUBE, statistics, partitioned scans.

Three things the paper points at but does not evaluate, all implemented
on the OLAP Array ADT:

1. the **CUBE operator** — all 2ⁿ group-bys in one chunk scan (the
   [ZDN97] companion algorithm);
2. **statistical ADT functions** — variance and correlation computed
   inside the "server" (§3.5's promise);
3. **partitioned consolidation** — the same scan run over chunk
   sub-ranges, the partial results merged exactly (§6's parallelization
   direction; ``engine.query(..., shards=4)`` does this behind an
   executor).

Run:  python examples/cube_and_stats.py
"""

import random

from repro.core import ConsolidationSpec, compute_cube, consolidate
from repro.core.builder import DimensionData, build_olap_array
from repro.core.consolidate import ResultAccumulator, scan_chunk_range
from repro.storage import BufferPool, FileManager, SimulatedDisk
from repro.util.stats import Counters

rng = random.Random(42)

# -- a 3-D cube: product type x region x quarter ----------------------------

disk = SimulatedDisk(page_size=2048)
fm = FileManager(BufferPool(disk, capacity_bytes=2 * 1024 * 1024))

dimensions = [
    DimensionData(
        "product",
        list(range(30)),
        {"type": [f"type-{p % 5}" for p in range(30)]},
    ),
    DimensionData(
        "store",
        list(range(20)),
        {"region": [("East", "West", "South")[s % 3] for s in range(20)]},
    ),
    DimensionData(
        "time",
        list(range(12)),
        {"quarter": [f"Q{t // 3 + 1}" for t in range(12)]},
    ),
]

# two measures per cell: units sold and revenue (correlated, of course)
facts = []
for p in range(30):
    for s in range(20):
        for t in range(12):
            if rng.random() < 0.25:
                units = rng.randint(1, 40)
                revenue = units * (10 + p % 5) + rng.randint(-5, 5)
                facts.append((p, s, t, units, revenue))

array = build_olap_array(
    fm,
    "sales",
    dimensions,
    facts,
    chunk_shape=(10, 10, 6),
    measure_names=["units", "revenue"],
)
print(f"cube: {array.geometry.shape}, {array.n_valid} valid cells "
      f"({array.density:.1%} dense)\n")

# -- 1. CUBE: every group-by in one pass -------------------------------------

specs = [
    ConsolidationSpec.level("type"),
    ConsolidationSpec.level("region"),
    ConsolidationSpec.level("quarter"),
]
counters = Counters()
cube = compute_cube(array, specs, counters=counters)
print(f"CUBE computed {int(counters.get('group_bys_computed'))} group-bys "
      f"in one scan of {int(counters.get('cells_scanned'))} cells:")
for subset in ((), ("store",), ("product", "time")):
    rows = cube[subset]
    label = " x ".join(subset) if subset else "grand total"
    print(f"    {label:<16} -> {len(rows)} row(s); first: {rows[0]}")
print()

# -- 2. statistics inside the ADT ---------------------------------------------

stats = array.measure_stats()
print("measure statistics (whole cube):")
for measure, values in stats.items():
    print(f"    {measure:<8} mean={values['mean']:8.2f}  var={values['var']:10.2f}")
corr = array.correlation("units", "revenue")
print(f"    corr(units, revenue) = {corr:.4f}  (revenue tracks units)\n")

east_only = [None, (0, 0), None]  # store index 0 is an East store
print(f"corr within one store slab: "
      f"{array.correlation('units', 'revenue', ranges=east_only):.4f}\n")

# -- 3. variance by group, and partitioned == direct --------------------------

by_region = consolidate(
    array,
    [ConsolidationSpec.drop(), ConsolidationSpec.level("region"),
     ConsolidationSpec.drop()],
    aggregate="var",
)
print("variance per region (position-based aggregation, both measures):")
for region, var_units, var_revenue in by_region.rows:
    print(f"    {region:<6} var(units)={var_units:8.2f}  "
          f"var(revenue)={var_revenue:10.2f}")

direct = consolidate(array, specs)
merged = ResultAccumulator(array, specs)
n_chunks = array.geometry.n_chunks
bounds = [n_chunks * p // 4 for p in range(5)]
for start, stop in zip(bounds, bounds[1:]):
    partial = ResultAccumulator(array, specs)
    scan_chunk_range(array, partial, range(start, stop), "interpreted")
    merged.merge_from(partial)
assert merged.rows() == direct.rows
print(f"\npartitioned consolidation over 4 chunk ranges reproduced the "
      f"direct result exactly ({len(direct.rows)} rows).")
