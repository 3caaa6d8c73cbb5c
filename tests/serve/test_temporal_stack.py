"""The live observability stack on one service, scraped once and shut down.

Latency histograms, slow-query counting and the scrape endpoint over
one :class:`QueryService` on a file-backed WAL: after a mixed
read/write workload the ``/metrics`` scrape lints, every latency family
it exports has observations, each query-latency exemplar names a trace
the flight recorder still holds and appears in the scrape, slow queries
were counted, and no thread the service started outlives ``close()``.
"""

import threading

from repro.bench import (
    bench_settings,
    build_cube_engine,
    query1_for,
    query2_for,
    query3_for,
)
from repro.cli import fetch_metrics
from repro.data import generate_fact_rows
from repro.api.model import LogicalModel
from repro.api.server import ApiEndpoint, ApiServer
from tests.prom_text import lint_prometheus_text
from repro.serve import QueryService, ServiceConfig

from .conftest import CONFIG

QUERIES = (query1_for(CONFIG), query2_for(CONFIG), query3_for(CONFIG))

#: the latency families a scrape must carry; each needs an observation
SCRAPED_HISTOGRAMS = (
    "repro_serve_query_latency_seconds",
    "repro_serve_queue_wait_seconds",
    "repro_serve_cache_lookup_seconds",
    "repro_wal_fsync_seconds",
    "repro_engine_query_seconds",
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
        ServiceConfig(max_workers=2, slow_threshold_s=0.0),
    )

    try:
        for _ in range(10):
            for query in QUERIES:
                service.execute(query)
        service.write_cell(CONFIG.name, keys, measures)
        assert "result_cache_hit" not in service.execute(QUERIES[0]).stats

        endpoint = ApiEndpoint(engine, service, LogicalModel(cubes=()))
        with ApiServer(endpoint) as server:
            scrape = fetch_metrics(f"{server.url}/metrics")
        endpoint.close()
        observed = {
            sample.name[: -len("_count")]
            for sample in lint_prometheus_text(scrape)
            if sample.name.endswith("_count") and sample.value > 0
        }
        assert [f for f in SCRAPED_HISTOGRAMS if f not in observed] == []
        latency = engine.db.metrics.histogram("serve.query_latency_seconds")
        exemplars = [ex for ex in latency.exemplars() if ex is not None]
        assert exemplars
        for trace_id, _ in exemplars:
            assert service.traces.get(trace_id) is not None
            assert f"trace_id={trace_id} " in scrape

        assert service.counters.get("serve.slow_queries") > 0
    finally:
        service.close()
    started = set(threading.enumerate()) - before
    for thread in started:
        thread.join(timeout=5)
    assert [t.name for t in started if t.is_alive()] == []
