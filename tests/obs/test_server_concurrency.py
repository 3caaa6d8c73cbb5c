"""Hammer the introspection routes while their stores churn.

Readers call ``ObservabilityRoutes.handle`` for ``/metrics``,
``/traces`` and ``/memory`` from several threads (the property is the
payload functions' thread-safety, which needs no socket) while a
mutator adds counters, records observations and traces with their
plans, retires per-query bags and swaps the source for a
fresh bag (the one way a total still restarts from zero: a service
re-registering with ``replace=True``) — every response must stay
parseable (exposition text or JSON), never raise.
"""

import json
import threading
from types import SimpleNamespace

import pytest

from repro.obs import ObservabilityRoutes, TraceStore
from tests.prom_text import lint_prometheus_text
from repro.obs.memory import MemoryAccountant
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import new_trace_context
from repro.util.stats import Counters

ROUNDS = 30


@pytest.fixture
def stack():
    registry = MetricsRegistry()
    registry.register("svc", Counters())
    registry.observe("svc.latency_seconds", 0.01)
    service = SimpleNamespace(
        traces=TraceStore(capacity=8),
        memory=MemoryAccountant(registry, budget_bytes=4_000),
    )
    service.memory.register_store("traces", service.traces, cost_rank=1)
    return registry, service, ObservabilityRoutes(registry, service)


def test_reads_survive_concurrent_mutation_and_resets(stack):
    registry, service, routes = stack
    paths = (
        ("/metrics", {}),
        ("/traces", {"limit": "5"}),
        ("/memory", {"top": "3"}),
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
            service.traces.record(
                new_trace_context(),
                name=f"query:{i}",
                latency_s=0.001 * i,
                roots=[{"name": "query", "children": []}],
                plans=[{"backend": "array", "round": i}],
            )
            if i % 5 == 4:
                registry.unregister("svc")
                registry.register("svc", Counters())

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
    # the stores' growth kept the budget: the last put reclaimed in place
    assert service.memory.total_resident_bytes() <= 4_000
