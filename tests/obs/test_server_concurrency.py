"""Hammer the observability endpoint while the registry churns.

Readers GET ``/metrics``, ``/timeseries/*``, ``/alerts`` and
``/profile`` from several threads while a mutator adds counters,
records observations, samples the TSDB, retires per-query bags and swaps
the source for a fresh bag (the one way a total still restarts from
zero: a service re-registering with ``replace=True``) — every response
must stay parseable (exposition text or JSON), never a 500.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    AlertManager,
    ObservabilityServer,
    SamplingProfiler,
    TimeSeriesStore,
)
from repro.obs.exporters import lint_prometheus_text
from repro.obs.registry import MetricsRegistry
from repro.util.stats import Counters

ROUNDS = 30


def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


@pytest.fixture
def stack():
    registry = MetricsRegistry()
    registry.register("svc", Counters())
    registry.observe("svc.latency_seconds", 0.01)
    tsdb = TimeSeriesStore(registry)
    tsdb.sample()
    alerts = AlertManager(tsdb)
    profiler = SamplingProfiler()
    with ObservabilityServer(
        registry, timeseries=tsdb, alerts=alerts, profiler=profiler
    ) as server:
        yield registry, tsdb, server


def test_reads_survive_concurrent_mutation_and_resets(stack):
    registry, tsdb, server = stack
    paths = (
        "/metrics",
        "/timeseries",
        "/timeseries/svc.requests?seconds=30",
        "/timeseries/svc.latency_seconds?seconds=30&q=0.99",
        "/alerts",
        "/profile",
    )
    failures: list[str] = []
    start = threading.Barrier(len(paths) + 2)

    def mutate():
        start.wait()
        for i in range(ROUNDS):
            registry.counters("svc").add("svc.requests", 1)
            registry.observe("svc.latency_seconds", 0.001 * (i + 1))
            with registry.scoped("query", Counters()) as bag:
                bag.add("svc.probes", 1)
            tsdb.sample()
            if i % 5 == 4:
                registry.register("svc", Counters(), replace=True)

    def read(path):
        start.wait()
        for _ in range(ROUNDS):
            status, body = _get(f"{server.url}{path}")
            if status == 500:
                failures.append(f"{path}: HTTP 500")
                return
            try:
                if path == "/metrics":
                    lint_prometheus_text(body)
                else:
                    json.loads(body)
            except Exception as error:
                failures.append(f"{path}: unparseable ({error})")
                return

    threads = [threading.Thread(target=mutate, daemon=True)]
    threads += [
        threading.Thread(target=read, args=(path,), daemon=True)
        for path in paths
    ]
    for thread in threads:
        thread.start()
    start.wait()
    for thread in threads:
        thread.join(timeout=30)
    assert failures == []
    assert not any(thread.is_alive() for thread in threads)


def test_known_metric_route_stays_200_across_resets(stack):
    registry, tsdb, server = stack
    registry.counters("svc").add("svc.requests", 3)
    tsdb.sample()
    status, body = _get(f"{server.url}/timeseries/svc.requests")
    assert status == 200
    assert json.loads(body)["kind"] == "counter"
    registry.register("svc", Counters(), replace=True)
    registry.counters("svc").add("svc.requests", 1)
    tsdb.sample()
    status, body = _get(f"{server.url}/timeseries/svc.requests")
    assert status == 200
    payload = json.loads(body)
    # a replaced source restarts from zero: deltas clamp, never negative
    assert payload["points"]
    assert all(point["delta"] >= 0 for point in payload["points"])
