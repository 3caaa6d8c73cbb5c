"""Workload construction and cold-run execution for the experiments.

Scale handling: every experiment runs at a scale (``REPRO_SCALE`` or
``medium`` by default for benchmarks).  Page size and buffer pool are
scaled with the data so that page-count *ratios* between structures —
which drive every figure — stay close to the paper's 8 KiB-page,
16 MB-pool configuration:

========  =========  ===========  =============================
scale     page size  buffer pool  fact file (Data Set 1) pages
========  =========  ===========  =============================
small     128 B      64 KiB       ~190  (paper ratio preserved)
medium    256 B      512 KiB      ~1500 (≈ paper's 1565)
paper     8 KiB      16 MiB       1565
========  =========  ===========  =============================

Queries follow the paper: Query 1 groups by every dimension's hX1;
Query 2 adds one equality selection per dimension (per-dimension
selectivity ≈ 1/fanout, so S ≈ fanout⁻⁴); Query 3 selects on and
groups by only the first three dimensions.
"""

from __future__ import annotations

import statistics
import threading
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.bench.baselines import BASELINES
from repro.data.datasets import get_scale
from repro.data.generator import (
    SyntheticCubeConfig,
    cube_schema_for,
    generate_dimension_rows,
    generate_fact_rows,
)
from repro.obs.tracer import Span, Tracer, thread_tracing
from repro.olap.engine import OlapEngine, QueryResult
from repro.olap.query import ConsolidationQuery, SelectionPredicate
from repro.storage.disk import DiskModel
from repro.util.stats import Counters, Timer

# Page size scales with the data so page-count ratios between the
# structures match the paper's 8 KiB pages; the disk transfer rate
# scales the same way so simulated I/O keeps its paper-relative weight
# against (Python) CPU time.  Seek time is per-access and the access
# counts that matter (chunk fetches, tuple fetches) are geometry-
# preserved, so it stays at 10 ms everywhere.
_SETTINGS = {
    "small": {
        "page_size": 128,
        "pool_bytes": 256 * 1024,
        "disk_model": DiskModel(seek_ms=10.0, transfer_mb_per_s=0.07),
    },
    "medium": {
        "page_size": 1024,
        "pool_bytes": 2 * 1024 * 1024,
        "disk_model": DiskModel(seek_ms=10.0, transfer_mb_per_s=1.0),
    },
    "paper": {
        "page_size": 8192,
        "pool_bytes": 16 * 1024 * 1024,
        "disk_model": DiskModel(seek_ms=10.0, transfer_mb_per_s=10.0),
    },
}


@dataclass(frozen=True)
class BenchSettings:
    """Storage configuration for one experiment run."""

    scale: str
    page_size: int
    pool_bytes: int
    disk_model: DiskModel


def bench_settings(scale: str | None = None) -> BenchSettings:
    """Settings for a scale (default: ``REPRO_SCALE`` or ``medium``)."""
    scale = scale or get_scale(default="medium")
    return BenchSettings(scale=scale, **_SETTINGS[scale])


def build_cube_engine(
    config: SyntheticCubeConfig,
    settings: BenchSettings | None = None,
    backends: tuple[str, ...] = ("array", "relational"),
    fact_btrees: bool = False,
    fact_mbtree: bool = False,
    codec: str = "chunk-offset",
    wal_dir: str | None = None,
):
    """Build one synthetic cube in a fresh engine; returns the engine.

    Only hX1 bitmap indices are built (the attributes Query 2/3 select
    on), matching the paper's "create a join bitmap index on each
    selected attribute ... ahead of time".  Pass ``wal_dir`` to run the
    stack over a file-backed WAL (the serving/observability commands do,
    so fsync latency histograms carry real observations).
    """
    settings = settings or bench_settings()
    engine = OlapEngine(
        page_size=settings.page_size,
        pool_bytes=settings.pool_bytes,
        disk_model=settings.disk_model,
        wal_dir=wal_dir,
    )
    schema = cube_schema_for(config)
    bitmap_attrs = [
        (f"dim{d}", f"h{d}1") for d in range(config.ndim)
    ]
    engine.load_cube(
        schema,
        generate_dimension_rows(config),
        generate_fact_rows(config),
        chunk_shape=config.chunk_shape,
        codec=codec,
        backends=backends,
        bitmap_attrs=bitmap_attrs if "relational" in backends else "all",
        fact_btrees=fact_btrees,
        fact_mbtree=fact_mbtree,
    )
    return engine


def query1_for(config: SyntheticCubeConfig) -> ConsolidationQuery:
    """Query 1: group by every dimension's hX1, sum(volume)."""
    return ConsolidationQuery.build(
        config.name,
        group_by={f"dim{d}": f"h{d}1" for d in range(config.ndim)},
    )


def query2_for(
    config: SyntheticCubeConfig, value: str = "AA1"
) -> ConsolidationQuery:
    """Query 2: Query 1 plus one hX1 equality selection per dimension."""
    return ConsolidationQuery.build(
        config.name,
        group_by={f"dim{d}": f"h{d}1" for d in range(config.ndim)},
        selections=[
            SelectionPredicate.in_list(f"dim{d}", f"h{d}1", value)
            for d in range(config.ndim)
        ],
    )


def query3_for(
    config: SyntheticCubeConfig, value: str = "AA1"
) -> ConsolidationQuery:
    """Query 3: selection and group-by on the first three dimensions only."""
    return ConsolidationQuery.build(
        config.name,
        group_by={f"dim{d}": f"h{d}1" for d in range(min(3, config.ndim))},
        selections=[
            SelectionPredicate.in_list(f"dim{d}", f"h{d}1", value)
            for d in range(min(3, config.ndim))
        ],
    )


def run_cold(
    engine: OlapEngine, query: ConsolidationQuery, backend: str
) -> QueryResult:
    """Execute one cold-cache query (the paper's measurement protocol).

    A baseline name (``btree``, ``mbtree``, ``leftdeep``, ``naive``)
    runs its :mod:`repro.bench.baselines` function through the engine's
    measured run; any other name is the engine's to route.
    """
    baseline = BASELINES.get(backend)
    if baseline is None:
        return engine.query(query, backend=backend, cold=True)
    state = engine.cube(query.cube)
    query.validate(state.schema)
    return engine.measured_run(state, query, backend, baseline)


def run_cold_traced(
    engine: OlapEngine, query: ConsolidationQuery, backend: str
) -> tuple[QueryResult, Span]:
    """:func:`run_cold` with a live tracer; returns ``(result, root span)``.

    The root span's inclusive I/O deltas equal the result's ``stats``
    counter-for-counter — the simulated disk is deterministic, so the
    traced run costs exactly what the untraced run reports.
    """
    tracer = Tracer(registry=engine.db.metrics)
    with thread_tracing(tracer):
        result = run_cold(engine, query, backend)
    if len(tracer.roots) != 1:
        raise RuntimeError(
            f"expected exactly one root span, got {len(tracer.roots)}"
        )
    return result, tracer.roots[0]


def aggregate_stats(results: Iterable[QueryResult]) -> dict[str, float]:
    """Counter stats of several runs summed into one snapshot."""
    total = Counters()
    for result in results:
        bag = Counters()
        for name, value in result.stats.items():
            bag.add(name, value)
        total += bag
    return total.snapshot()


# -- serving-mode runs (warm cache / concurrent traffic) ----------------------


@dataclass(frozen=True)
class WarmReport:
    """Cold-vs-warm comparison of one query through the result cache."""

    cold: QueryResult
    warm: list[QueryResult]
    hit_rate: float

    @property
    def warm_cost_s(self) -> float:
        """Median cost of the warm repeats."""
        return statistics.median(r.cost_s for r in self.warm)

    @property
    def speedup(self) -> float:
        """Cold cost over median warm cost (∞-safe: floor at 1 µs)."""
        return self.cold.cost_s / max(self.warm_cost_s, 1e-6)


def run_warm(
    engine: OlapEngine,
    query: ConsolidationQuery,
    backend: str = "auto",
    repeats: int = 3,
) -> WarmReport:
    """One cold run, then ``repeats`` runs through a warm `QueryService`.

    The cold run follows the paper's protocol (:func:`run_cold`); the
    warm runs go through the serving layer, where the first populates
    the result cache and the rest should hit it.
    """
    from repro.serve import QueryService, ServiceConfig

    cold = run_cold(engine, query, backend)
    warm: list[QueryResult] = []
    with QueryService(engine, ServiceConfig(max_workers=1)) as service:
        service.execute(query, backend)  # populate
        for _ in range(repeats):
            warm.append(service.execute(query, backend))
    hits = sum(1 for r in warm if r.stats.get("result_cache_hit"))
    return WarmReport(cold=cold, warm=warm, hit_rate=hits / max(1, len(warm)))


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1 - fraction) + sorted_values[high] * fraction


@dataclass(frozen=True)
class ConcurrentReport:
    """Latency and cache statistics of one concurrent mixed workload."""

    n_threads: int
    latencies_s: list[float]
    hit_rate: float
    stats: dict[str, float]
    #: per client thread, the ``(query index, rows)`` pairs it observed
    #: in issue order — the serial-replay oracle compares against these
    rows_by_thread: list[list[tuple[int, list[tuple]]]] = field(repr=False)

    @property
    def p50_s(self) -> float:
        return _percentile(sorted(self.latencies_s), 0.50)

    @property
    def p95_s(self) -> float:
        return _percentile(sorted(self.latencies_s), 0.95)

    @property
    def p99_s(self) -> float:
        return _percentile(sorted(self.latencies_s), 0.99)


def run_concurrent(
    engine: OlapEngine,
    queries: list[ConsolidationQuery],
    n_threads: int = 8,
    rounds: int = 2,
    backend: str = "auto",
    service=None,
) -> ConcurrentReport:
    """``n_threads`` clients each issue every query ``rounds`` times.

    All clients share one :class:`~repro.serve.service.QueryService`
    admitting ``n_threads`` misses, one per client, so no request is
    rejected; client-side wall latency is
    recorded per call.  The report carries cache-hit rate and p50/p95
    latency — the serving-mode numbers next to the cold cost tables.

    Pass ``service`` to run the workload through an existing (suitably
    sized) service instead of a private one — ``repro serve
    --metrics-port`` does this so the server's ``/metrics`` scrapes the
    same service the workload hits.  A passed-in service is left
    open; the private one is closed on return.
    """
    from contextlib import nullcontext

    from repro.serve import QueryService, ServiceConfig

    if service is None:
        scope = QueryService(engine, ServiceConfig(max_workers=n_threads))
    else:
        scope = nullcontext(service)
    latencies: list[float] = []
    lock = threading.Lock()

    with scope as service:

        def client(thread_no: int) -> list[tuple[int, list[tuple]]]:
            seen: list[tuple[int, list[tuple]]] = []
            for _ in range(rounds):
                for index, query in enumerate(queries):
                    with Timer() as timer:
                        result = service.execute(query, backend)
                    with lock:
                        latencies.append(timer.elapsed)
                    seen.append((index, result.rows))
            return seen

        with ThreadPoolExecutor(
            max_workers=n_threads, thread_name_prefix="repro-client"
        ) as pool:
            rows_by_thread = list(pool.map(client, range(n_threads)))
        stats = service.stats()

    hits = stats.get("result_cache.hits", 0.0)
    misses = stats.get("result_cache.misses", 0.0)
    lookups = hits + misses
    return ConcurrentReport(
        n_threads=n_threads,
        latencies_s=latencies,
        hit_rate=hits / lookups if lookups else 0.0,
        stats=stats,
        rows_by_thread=rows_by_thread,
    )
