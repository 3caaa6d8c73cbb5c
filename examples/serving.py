#!/usr/bin/env python
"""Serving: concurrent clients, result/chunk caches, write invalidation.

The engine core is single-threaded by design; ``repro.serve`` wraps it
for concurrent traffic.  This example stands a `QueryService` over a
small synthetic cube and shows the three serving behaviours: repeated
queries answered from the result cache, a write staling exactly the
changed cube's entries (through its generation), and eight client threads sharing one
service without ever observing a stale row.

Run:  python examples/serving.py
"""

from concurrent.futures import ThreadPoolExecutor

from repro import ConsolidationQuery, QueryService, ServiceConfig
from repro.bench import bench_settings, build_cube_engine
from repro.data import SyntheticCubeConfig

config = SyntheticCubeConfig(
    name="traffic",
    dim_sizes=(6, 6, 10),
    n_valid=180,
    chunk_shape=(3, 3, 5),
    fanout1=3,
    seed=2024,
)
engine = build_cube_engine(config, bench_settings("small"))

query = (
    ConsolidationQuery.builder("traffic")
    .group_by("dim0", "h01")
    .group_by("dim1", "h11")
    .where_in("dim2", "h21", "AA1", "AA2")
    .build()
)

# -- 1. repeated queries hit the result cache -------------------------------

service = QueryService(engine, ServiceConfig(max_workers=8))
cold = service.execute(query)
warm = service.execute(query)
print(f"cold miss : backend={cold.backend}  cost={cold.cost_s * 1e3:.2f} ms")
print(
    f"warm hit  : cost={warm.cost_s * 1e3:.4f} ms  "
    f"(result_cache_hit={warm.stats['result_cache_hit']:.0f}, no engine work)"
)

# -- 2. a write bumps the generation and drops the cached entry -------------

generation = engine.cube_generation("traffic")
service.append_facts("traffic", [(0, 0, 0, 500)])
recomputed = service.execute(query)
print(
    f"\nafter write: generation {generation} -> "
    f"{engine.cube_generation('traffic')}, recomputed fresh "
    f"(hit={'result_cache_hit' in recomputed.stats})"
)

# -- 3. eight concurrent clients share one service --------------------------

def client(n):
    return [service.execute(query).rows for _ in range(5)]

with ThreadPoolExecutor(max_workers=8) as pool:
    per_client = list(pool.map(client, range(8)))

reference = service.execute(query).rows
assert all(rows == reference for answers in per_client for rows in answers)
stats = service.stats()
service.close()

hits = stats["result_cache.hits"]
lookups = hits + stats["result_cache.misses"]
print(
    f"\n8 clients x 5 queries: every answer identical to serial; "
    f"hit rate {hits / lookups:.0%}"
)
print(
    f"chunk cache: {stats.get('chunk_cache.hits', 0):.0f} hits / "
    f"{stats.get('chunk_cache.misses', 0):.0f} misses shared across threads"
)
