"""The introspection routes: the table itself (``ObservabilityRoutes.
handle``) on bare registries and stub services, and the HTTP-level
behaviour — content types, status codes, lifecycle — once, on the one
listener (``ApiServer``)."""

import json
import subprocess
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.api.model import LogicalModel
from repro.api.server import ApiEndpoint, ApiServer
from repro.errors import ApiNotFoundError
from repro.obs import ObservabilityRoutes
from tests.prom_text import lint_prometheus_text
from repro.obs.registry import MetricsRegistry
from repro.obs.server import ROUTES
from repro.obs.tracing import new_trace_context, trace_context
from repro.olap import ConsolidationQuery, ExecutionOptions
from repro.serve import QueryService, ServiceConfig
from repro.util.stats import Counters

from tests.api.conftest import CONFIG, fresh_engine, fresh_model


def _get(url: str):
    """``(status, headers, body_text)`` for one GET."""
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return (
                response.status,
                response.headers,
                response.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as error:
        return error.code, error.headers, error.read().decode("utf-8")


QUERY = ConsolidationQuery.build(
    CONFIG.name,
    group_by={f"dim{d}": f"h{d}1" for d in range(CONFIG.ndim)},
)


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    counters = Counters()
    counters.add("requests", 7)
    registry.register("svc", counters)
    registry.register_gauge("svc.depth", lambda: 3.0)
    for value in (0.001, 0.01, 0.25):
        registry.observe("svc.latency_seconds", value)
    return registry


@pytest.fixture(scope="module")
def live():
    """``(service, server)``: a live engine behind the one listener, every
    query slow (so each miss caches its analyzed plan) and profiled."""
    engine = fresh_engine()
    with QueryService(
        engine, ServiceConfig(slow_threshold_s=0.0)
    ) as service:
        endpoint = ApiEndpoint(engine, service, fresh_model())
        with ApiServer(endpoint) as server:
            yield service, server
        endpoint.close()


class TestRoutes:
    def test_metrics_route_serves_lintable_exposition_text(self, registry):
        status, body, content_type = ObservabilityRoutes(registry).handle(
            "/metrics", {}
        )
        assert status == 200
        assert content_type.startswith("text/plain")
        lint_prometheus_text(body)
        assert 'repro_requests_total{source="svc"} 7' in body
        assert "repro_svc_latency_seconds_bucket" in body
        assert "repro_svc_latency_seconds_count 3" in body

    def test_ephemeral_port_binding(self, live):
        _, server = live
        assert server.port != 0
        assert str(server.port) in server.url

    def test_healthz_detached_reports_ok(self, registry):
        status, payload, _ = ObservabilityRoutes(registry).handle(
            "/healthz", {}
        )
        assert status == 200
        assert payload == {"status": "ok", "service": "detached"}

    def test_unknown_route_404_lists_routes(self, registry, live):
        assert ObservabilityRoutes(registry).handle("/nope", {}) is None
        _, server = live
        status, _, body = _get(f"{server.url}/nope")
        assert status == 404
        assert "see / for routes" in json.loads(body)["error"]["message"]
        routes = json.loads(_get(f"{server.url}/")[2])["routes"]
        assert "/metrics" in routes
        assert "/healthz" in routes

    def test_query_string_and_trailing_slash_ignored(self, live):
        _, server = live
        status, headers, _ = _get(f"{server.url}/metrics/?debug=1")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        status, headers, _ = _get(f"{server.url}/healthz/")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")


class _StubService:
    """Just enough QueryService surface for the health probe."""

    def __init__(self, degraded):
        self._degraded = degraded
        self.in_flight = 2
        self.counters = Counters()
        self.counters.add("serve.recoveries", 1)

    def degraded_cubes(self):
        return list(self._degraded)


class TestHealth:
    def test_degraded_service_reports_503(self, registry):
        status, payload, _ = ObservabilityRoutes(
            registry, _StubService(["cube_a"])
        ).handle("/healthz", {})
        assert status == 503
        assert payload["status"] == "degraded"
        assert payload["degraded_cubes"] == ["cube_a"]
        assert payload["in_flight"] == 2

    def test_healthy_service_reports_200(self, registry):
        status, payload, _ = ObservabilityRoutes(
            registry, _StubService([])
        ).handle("/healthz", {})
        assert status == 200
        assert payload["status"] == "ok"

    def test_one_health_body_on_the_api_server(self):
        """The listener's ``/healthz`` is the table's: the full body, and
        a 503 naming the cube when the attached service is degraded."""
        for degraded, expected in (([], 200), (["cube_a"], 503)):
            endpoint = ApiEndpoint(
                fresh_engine(), _StubService(degraded), LogicalModel(cubes=())
            )
            with ApiServer(endpoint) as server:
                status, _, body = _get(f"{server.url}/healthz")
            endpoint.close()
            payload = json.loads(body)
            assert status == expected
            assert payload["degraded_cubes"] == degraded
            assert payload["in_flight"] == 2
            assert payload["recoveries"] == 1
            assert payload["degradations"] == 0


class TestExplainRoutes:
    def test_explain_index_and_lookup(self, registry):
        from repro.obs.explain import PlanCache

        plans = PlanCache()
        plans.put("fp_a", {"backend": "array", "analyzed": False})
        routes = ObservabilityRoutes(registry, SimpleNamespace(plans=plans))
        status, index, content_type = routes.handle("/explain", {})
        assert status == 200
        assert content_type is None  # JSON
        assert index == {"fingerprints": ["fp_a"], "count": 1}

        status, payload, _ = routes.handle("/explain/fp_a", {})
        assert status == 200
        assert payload["backend"] == "array"

    def test_explain_unknown_fingerprint_404(self, registry):
        from repro.obs.explain import PlanCache

        routes = ObservabilityRoutes(
            registry, SimpleNamespace(plans=PlanCache())
        )
        with pytest.raises(ApiNotFoundError, match="no plan") as caught:
            routes.handle("/explain/deadbeef", {})
        assert caught.value.status == 404

    def test_explain_detached_serves_empty_index(self, registry):
        routes = ObservabilityRoutes(registry)
        status, payload, _ = routes.handle("/explain", {})
        assert status == 200
        assert payload == {"fingerprints": [], "count": 0}
        with pytest.raises(ApiNotFoundError):
            routes.handle("/explain/anything", {})

    def test_routes_listed_in_404(self, live):
        _, server = live
        routes = json.loads(_get(f"{server.url}/")[2])["routes"]
        assert "/explain/<fingerprint>" in routes
        assert [p for p, _ in ROUTES if p not in routes] == []

    def test_service_explain_payload_served_end_to_end(self, live):
        service, server = live
        plan = service.explain(
            QUERY, ExecutionOptions(backend="array"), analyze=True
        )
        status, _, body = _get(f"{server.url}/explain/{plan.fingerprint}")
        assert status == 200
        payload = json.loads(body)
        assert payload["analyzed"] is True
        assert payload["fingerprint"] == plan.fingerprint
        assert payload["execution"]["rows"] == plan.rows


class TestLifecycle:
    def test_stop_is_idempotent_and_start_restarts(self):
        endpoint = ApiEndpoint(
            fresh_engine(), _StubService([]), LogicalModel(cubes=())
        )
        server = ApiServer(endpoint)
        server.start()
        first_port = server.port
        assert _get(f"{server.url}/healthz")[0] == 200
        server.stop()
        server.stop()  # second stop is a no-op
        server.start()
        try:
            assert _get(f"{server.url}/healthz")[0] == 200
        finally:
            server.stop()
            endpoint.close()
        assert first_port != 0


class TestMemoryRoute:
    def test_404_without_accountant(self, registry):
        with pytest.raises(ApiNotFoundError, match="no memory accountant"):
            ObservabilityRoutes(registry).handle("/memory", {})

    def test_breakdown_payload_and_top_param(self, registry):
        from repro.obs.memory import MemoryAccountant, SizedStore

        accountant = MemoryAccountant(budget_bytes=10_000)
        cachey = SizedStore(capacity=4)
        for key, nbytes in (("k0", 1_000), ("k1", 600), ("k2", 448)):
            cachey.put(key, key, nbytes)
        accountant.register_store("cachey", cachey)
        status, payload, _ = ObservabilityRoutes(
            registry, SimpleNamespace(memory=accountant)
        ).handle("/memory", {"top": "2"})
        assert status == 200
        assert payload["budget_bytes"] == 10_000
        assert payload["total_resident_bytes"] == 2_048
        assert payload["stores"] == {"cachey": 2048}
        assert len(payload["top_entries"]) == 2
        assert payload["top_entries"][0]["store"] == "cachey"

    def test_route_defaults_from_attached_service(self, live):
        _, server = live
        status, _, body = _get(f"{server.url}/memory")
        assert status == 200
        payload = json.loads(body)
        stores = payload["stores"]
        for expected in (
            "buffer_pool",
            "chunk_cache",
            "result_cache",
            "traces",
            "plan_cache",
        ):
            assert expected in stores, stores
        assert payload["total_resident_bytes"] == sum(stores.values())


@pytest.mark.parametrize("pattern", [pattern for pattern, _ in ROUTES])
def test_one_table_every_pattern_is_served_untraced(live, pattern):
    """Every ``ROUTES`` pattern answers 200 on the one listener, is listed
    by ``GET /``, and is served before a trace is minted."""
    service, server = live
    ctx = new_trace_context()
    with trace_context(ctx):
        service.execute(QUERY)
    fills = {
        "<fingerprint>": service.traces.get(ctx.trace_id).attrs["fingerprint"],
        "<trace_id>": ctx.trace_id,
    }
    path = pattern
    for placeholder, value in fills.items():
        path = path.replace(placeholder, value)
    stored = service.traces.counters.get("traces.stored")
    status, headers, body = _get(server.url + path)
    assert status == 200, body
    assert "X-Trace-Id" not in headers
    if pattern != "/metrics":
        payload = json.loads(body)
        # no injected id: a trace record carries only its own
        if isinstance(payload, dict) and "trace_id" in payload:
            assert payload["trace_id"] == fills["<trace_id>"]
    assert service.traces.counters.get("traces.stored") == stored
    assert pattern in json.loads(_get(f"{server.url}/")[2])["routes"]


def test_one_listener_in_src():
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    counts = {
        str(path.relative_to(root)): path.read_text(encoding="utf-8").count(
            "ThreadingHTTPServer("
        )
        for path in root.rglob("*.py")
    }
    assert {name: n for name, n in counts.items() if n} == {"api/server.py": 1}


def test_importing_the_engine_does_not_import_http_server():
    """Nothing under ``repro.obs`` — the route table included — imports the
    stdlib HTTP server; only ``repro.api.server`` does.  (A subprocess:
    this one imported it long ago.)"""
    import os
    import sys

    code = (
        "import sys\n"
        "import repro.olap.engine, repro.obs.server\n"
        "assert 'http.server' not in sys.modules, 'http.server imported'\n"
        "import repro.obs\n"
        "assert 'ObservabilityRoutes' in repro.obs.__all__\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
