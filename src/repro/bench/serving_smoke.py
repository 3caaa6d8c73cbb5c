"""The CI serving-smoke: one warm+concurrent run, scraped and linted.

``repro bench-smoke`` (and the ``bench-smoke`` CI job) runs a small
serving workload through a shared :class:`QueryService` over a
file-backed WAL, scrapes the live ``/metrics`` endpoint over real HTTP,
lints the payload against the exposition grammar, checks the latency
histogram families the dashboards depend on are present and populated,
and writes a ``BENCH_serving.json`` artifact with the p50/p95/p99
latencies and counter totals.  Any failed check lands in ``failures``
— the CLI exits non-zero so a regression in the serving or
observability stack fails the job even when unit tests pass.
"""

from __future__ import annotations

import json
import tempfile

from repro.bench.harness import (
    bench_settings,
    build_cube_engine,
    query1_for,
    query2_for,
    query3_for,
    run_cold,
    run_concurrent,
    run_warm,
)
from repro.data.datasets import dataset1
from repro.obs.exporters import lint_prometheus_text
from repro.obs.server import ObservabilityServer
from repro.obs.top import MetricsView, fetch_metrics

#: histogram families the serving dashboards depend on; the smoke fails
#: when any is missing from the scrape
REQUIRED_HISTOGRAMS = (
    "repro_serve_query_latency_seconds",
    "repro_serve_queue_wait_seconds",
    "repro_serve_cache_lookup_seconds",
    "repro_wal_fsync_seconds",
    "repro_engine_query_seconds",
)


def run_serving_smoke(
    scale: str | None = None,
    n_threads: int = 4,
    rounds: int = 2,
    slowlog_threshold_s: float = 0.0,
    shards: int = 1,
    executor: str = "local",
) -> dict:
    """Run the smoke; returns the ``BENCH_serving.json`` payload.

    ``failures`` in the returned dict is empty on success.  The default
    slowlog threshold of 0 captures every query, so the smoke also
    proves the profile-capture path end to end.  ``shards > 1`` routes
    every engine miss through the shard coordinator; the artifact
    records the shard plan so ``bench-diff`` refuses to gate a sharded
    run against an unsharded baseline.
    """
    from repro.serve import QueryService, ServiceConfig

    settings = bench_settings(scale)
    config = dataset1(settings.scale)[1]  # the x100 cube
    queries = [query1_for(config), query2_for(config), query3_for(config)]
    failures: list[str] = []

    with tempfile.TemporaryDirectory(prefix="repro-bench-smoke-") as wal_dir:
        engine = build_cube_engine(config, settings, wal_dir=wal_dir)
        cold = run_cold(engine, queries[0], "array")  # the fig4 microbench
        warm = run_warm(engine, queries[0], backend="array")
        service = QueryService(
            engine,
            ServiceConfig(
                max_workers=n_threads,
                max_in_flight=2 * n_threads * len(queries),
                slowlog_threshold_s=slowlog_threshold_s,
                shards=shards,
                executor=executor,
            ),
        )
        server = ObservabilityServer(engine.db.metrics, service=service)
        try:
            server.start()
            report = run_concurrent(
                engine,
                queries,
                n_threads=n_threads,
                rounds=rounds,
                service=service,
            )
            scrape = fetch_metrics(f"{server.url}/metrics")
            try:
                lint_prometheus_text(scrape)
            except ValueError as exc:
                failures.append(f"scrape lint: {exc}")
            view = MetricsView.from_text(scrape)
            for family in REQUIRED_HISTOGRAMS:
                if family not in view.histogram_counts:
                    failures.append(f"histogram family missing: {family}")
            if view.histogram_counts.get(
                "repro_serve_query_latency_seconds", 0.0
            ) <= 0:
                failures.append("query latency histogram has no observations")
            if report.hit_rate <= 0:
                failures.append("concurrent workload saw no cache hits")
            if slowlog_threshold_s <= 0 and not len(service.slowlog):
                failures.append("slow-query log captured nothing at threshold 0")
            shard_totals = (
                engine.shard_coordinator.counters.snapshot()
                if shards > 1
                else {}
            )
            if shards > 1 and not shard_totals.get("shard.queries"):
                failures.append(
                    f"shards={shards} but no engine miss went through "
                    "the shard coordinator"
                )
            payload = {
                "scale": settings.scale,
                "cube": config.name,
                "shards": shards,
                "executor": executor,
                "threads": report.n_threads,
                "queries": len(report.latencies_s),
                "fig4_cold": {
                    "backend": cold.backend,
                    "cost_s": cold.cost_s,
                    "elapsed_s": cold.elapsed_s,
                    "sim_io_s": cold.sim_io_s,
                },
                "warm": {
                    "cold_cost_s": warm.cold.cost_s,
                    "warm_cost_s": warm.warm_cost_s,
                    "hit_rate": warm.hit_rate,
                    "speedup": warm.speedup,
                },
                "concurrent": {
                    "p50_s": report.p50_s,
                    "p95_s": report.p95_s,
                    "p99_s": report.p99_s,
                    "hit_rate": report.hit_rate,
                },
                "scrape": {
                    "histogram_families": sorted(view.histogram_counts),
                    "query_latency_observations": view.histogram_counts.get(
                        "repro_serve_query_latency_seconds", 0.0
                    ),
                    "wal_fsyncs": view.counter("repro_wal_fsyncs"),
                },
                "counters": {
                    name: value
                    for name, value in sorted(report.stats.items())
                },
                "shard_counters": {
                    name: value
                    for name, value in sorted(shard_totals.items())
                },
                "slowlog_entries": len(service.slowlog),
                "memory": {
                    "budget_bytes": 0,
                    "total_resident_bytes": int(
                        service.memory.total_resident_bytes()
                    ),
                    "stores": service.memory.usage_by_store(),
                },
                "failures": failures,
            }
        finally:
            server.stop()
            service.close()
    return payload


def write_artifact(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def archive_artifact(payload: dict, results_dir: str) -> str:
    """Keep a timestamped copy under ``results_dir``; returns its path.

    ``bench-smoke`` archives every run as
    ``results_dir/BENCH_serving.<scale>.<UTC timestamp>.json`` so later
    runs have baselines for ``repro bench-diff`` without any CI cache
    plumbing — the newest earlier artifact of the same scale *is* the
    baseline.
    """
    import os
    import time

    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    name = f"BENCH_serving.{payload.get('scale', 'unknown')}.{stamp}.json"
    path = os.path.join(results_dir, name)
    # same-second reruns (tests) must not clobber the earlier artifact
    serial = 0
    while os.path.exists(path):
        serial += 1
        path = os.path.join(results_dir, f"{name[:-5]}.{serial}.json")
    write_artifact(payload, path)
    return path


def latest_artifact(results_dir: str, scale: str | None = None) -> str | None:
    """Newest archived artifact path (optionally of one scale), if any."""
    import os

    if not os.path.isdir(results_dir):
        return None
    prefix = (
        f"BENCH_serving.{scale}." if scale is not None else "BENCH_serving."
    )
    paths = [
        os.path.join(results_dir, name)
        for name in os.listdir(results_dir)
        if name.startswith(prefix) and name.endswith(".json")
    ]
    # mtime, not name: same-second serial suffixes sort lexically
    # *before* the plain stamp, so a name sort would pick the older run
    return max(paths, key=os.path.getmtime) if paths else None
