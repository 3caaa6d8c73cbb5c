"""Hammer the introspection routes while the registry churns.

Readers call ``ObservabilityRoutes.handle`` for ``/metrics``,
``/timeseries/*`` and ``/profile`` from several threads
(the property is the payload functions' thread-safety, which needs no
socket) while a mutator adds counters, records observations, samples
the TSDB, retires per-query bags and swaps the source for a fresh bag
(the one way a total still restarts from zero: a service re-registering
with ``replace=True``) — every response must stay parseable (exposition
text or JSON), never raise.
"""

import json
import threading
from types import SimpleNamespace

import pytest

from repro.errors import ApiNotFoundError
from repro.obs import ObservabilityRoutes, SamplingProfiler, TimeSeriesStore
from repro.obs.exporters import lint_prometheus_text
from repro.obs.registry import MetricsRegistry
from repro.util.stats import Counters

ROUNDS = 30


@pytest.fixture
def stack():
    registry = MetricsRegistry()
    registry.register("svc", Counters())
    registry.observe("svc.latency_seconds", 0.01)
    tsdb = TimeSeriesStore(registry)
    tsdb.sample()
    service = SimpleNamespace(timeseries=tsdb, profiler=SamplingProfiler())
    return registry, tsdb, ObservabilityRoutes(registry, service)


def test_reads_survive_concurrent_mutation_and_resets(stack):
    registry, tsdb, routes = stack
    paths = (
        ("/metrics", {}),
        ("/timeseries", {}),
        ("/timeseries/svc.requests", {"seconds": "30"}),
        ("/timeseries/svc.latency_seconds", {"seconds": "30", "q": "0.99"}),
        ("/profile", {}),
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

    def read(path, params):
        start.wait()
        for _ in range(ROUNDS):
            try:
                status, body, _ = routes.handle(path, params)
                assert status == 200
                if path == "/metrics":
                    lint_prometheus_text(body)
                else:
                    json.loads(json.dumps(body))
            except ApiNotFoundError:
                pass  # a 404 (metric not sampled yet) is an answer
            except Exception as error:
                failures.append(f"{path}: {type(error).__name__}: {error}")
                return

    threads = [threading.Thread(target=mutate, daemon=True)]
    threads += [
        threading.Thread(target=read, args=route, daemon=True)
        for route in paths
    ]
    for thread in threads:
        thread.start()
    start.wait()
    for thread in threads:
        thread.join(timeout=30)
    assert failures == []
    assert not any(thread.is_alive() for thread in threads)


def test_known_metric_route_stays_200_across_resets(stack):
    registry, tsdb, routes = stack
    registry.counters("svc").add("svc.requests", 3)
    tsdb.sample()
    status, payload, _ = routes.handle("/timeseries/svc.requests", {})
    assert status == 200
    assert payload["kind"] == "counter"
    registry.register("svc", Counters(), replace=True)
    registry.counters("svc").add("svc.requests", 1)
    tsdb.sample()
    status, payload, _ = routes.handle("/timeseries/svc.requests", {})
    assert status == 200
    # a replaced source restarts from zero: deltas clamp, never negative
    assert payload["points"]
    assert all(point["delta"] >= 0 for point in payload["points"])
