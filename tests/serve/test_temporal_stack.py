"""The live temporal stack on one service, with the test driving the clock.

Time-series sampler, SLO alert evaluation, sampling profiler, slow-query
log and the scrape endpoint over one :class:`QueryService` on a
file-backed WAL.  The sampler thread stays off
(``timeseries_interval_s=0``): every tick is a
``timeseries.sample(now=t)`` followed by ``alerts.evaluate(now=t)``, so
the alert lifecycle — healthy traffic keeps every default rule silent, an
impossible rule fires exactly once, does not flap, and resolves when its
window drains — is asserted transition by transition instead of waited
for.
"""

import threading

from repro.bench import (
    bench_settings,
    build_cube_engine,
    query1_for,
    query2_for,
    query3_for,
)
from repro.data import generate_fact_rows
from repro.api.model import LogicalModel
from repro.api.server import ApiEndpoint, ApiServer
from repro.obs import lint_prometheus_text
from repro.obs.alerts import SloRule
from repro.obs.top import MetricsView, fetch_metrics
from repro.serve import QueryService, ServiceConfig

from .conftest import CONFIG

QUERIES = (query1_for(CONFIG), query2_for(CONFIG), query3_for(CONFIG))

#: the latency families the dashboards read; each needs an observation
SCRAPED_HISTOGRAMS = (
    "repro_serve_query_latency_seconds",
    "repro_serve_queue_wait_seconds",
    "repro_serve_cache_lookup_seconds",
    "repro_wal_fsync_seconds",
    "repro_engine_query_seconds",
)

#: unsatisfiable on purpose: any engine observation in its window breaches
IMPOSSIBLE = SloRule(
    name="injected-latency",
    kind="latency_quantile_ceiling",
    description="engine p50 above zero (must fire once and resolve)",
    severity="test",
    metric="engine.query_seconds",
    quantile=0.5,
    ceiling=0.0,
    window_s=5.0,
    min_count=1,
)


def test_alert_lifecycle_scrape_and_shutdown(tmp_path):
    engine = build_cube_engine(
        CONFIG, bench_settings("small"), wal_dir=str(tmp_path)
    )
    row = generate_fact_rows(CONFIG)[0]
    keys, measures = tuple(row[: CONFIG.ndim]), tuple(row[CONFIG.ndim :])
    before = set(threading.enumerate())
    service = QueryService(
        engine,
        ServiceConfig(
            max_workers=2,
            slowlog_threshold_s=0.0,
            profile_sampling_s=0.005,
            timeseries_interval_s=0,
        ),
    )

    def tick(now):
        service.timeseries.sample(now=now)
        return [
            (event["rule"], event["state"])
            for event in service.alerts.evaluate(now=now)
        ]

    def write_then_miss():
        service.write_cell(CONFIG.name, keys, measures)
        assert "result_cache_hit" not in service.execute(QUERIES[0]).stats

    try:
        assert tick(0.0) == []
        for _ in range(10):
            for query in QUERIES:
                service.execute(query)
        write_then_miss()
        assert tick(1.0) == []  # healthy traffic: every default rule silent

        service.alerts.add_rule(IMPOSSIBLE)
        write_then_miss()
        assert tick(2.0) == [(IMPOSSIBLE.name, "firing")]
        assert tick(3.0) == []  # still breached: no flap
        assert tick(20.0) == [(IMPOSSIBLE.name, "resolved")]  # window drained
        assert service.alerts.firings(IMPOSSIBLE.name) == 1
        assert service.alerts.firing() == []

        endpoint = ApiEndpoint(engine, service, LogicalModel(cubes=()))
        with ApiServer(endpoint) as server:
            scrape = fetch_metrics(f"{server.url}/metrics")
        endpoint.close()
        lint_prometheus_text(scrape)
        observed = MetricsView.from_text(scrape).histogram_counts
        assert [
            family
            for family in SCRAPED_HISTOGRAMS
            if not observed.get(family)
        ] == []

        assert len(service.slowlog) > 0
        assert service.profiler.to_dict()["ticks"] > 0
    finally:
        service.close()
    started = set(threading.enumerate()) - before
    for thread in started:
        thread.join(timeout=5)
    assert [t.name for t in started if t.is_alive()] == []
