"""The observability HTTP endpoint: routes, status codes, payloads."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import ObservabilityServer, SlowQueryLog
from repro.obs.exporters import lint_prometheus_text
from repro.obs.registry import MetricsRegistry
from repro.util.stats import Counters


def _get(url: str):
    """``(status, content_type, body_text)`` for one GET."""
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type", ""), error.read().decode(
            "utf-8"
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


class TestRoutes:
    def test_metrics_route_serves_lintable_exposition_text(self, registry):
        with ObservabilityServer(registry) as server:
            status, content_type, body = _get(f"{server.url}/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        lint_prometheus_text(body)
        assert 'repro_requests_total{source="svc"} 7' in body
        assert "repro_svc_latency_seconds_bucket" in body
        assert "repro_svc_latency_seconds_count 3" in body

    def test_ephemeral_port_binding(self, registry):
        with ObservabilityServer(registry, port=0) as server:
            assert server.port != 0
            assert str(server.port) in server.url

    def test_healthz_detached_reports_ok(self, registry):
        with ObservabilityServer(registry) as server:
            status, _, body = _get(f"{server.url}/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload == {"status": "ok", "service": "detached"}

    def test_slowlog_route_empty_without_log(self, registry):
        with ObservabilityServer(registry) as server:
            status, _, body = _get(f"{server.url}/slowlog")
        assert status == 200
        assert json.loads(body) == []

    def test_slowlog_and_trace_routes(self, registry):
        slowlog = SlowQueryLog(threshold_s=0.0)
        slowlog.record("fp123", "cube", "array", latency_s=0.5)
        with ObservabilityServer(registry, slowlog=slowlog) as server:
            status, _, body = _get(f"{server.url}/slowlog")
            assert status == 200
            entries = json.loads(body)
            assert len(entries) == 1
            assert entries[0]["fingerprint"] == "fp123"

            status, _, body = _get(f"{server.url}/trace/fp123")
            assert status == 200
            assert json.loads(body)["backend"] == "array"

            status, _, body = _get(f"{server.url}/trace/unknown")
            assert status == 404
            assert "no trace" in json.loads(body)["error"]

    def test_unknown_route_404_lists_routes(self, registry):
        with ObservabilityServer(registry) as server:
            status, _, body = _get(f"{server.url}/nope")
        assert status == 404
        payload = json.loads(body)
        assert "/metrics" in payload["routes"]
        assert "/healthz" in payload["routes"]

    def test_query_string_and_trailing_slash_ignored(self, registry):
        with ObservabilityServer(registry) as server:
            status, _, _ = _get(f"{server.url}/metrics/?debug=1")
            assert status == 200
            status, _, _ = _get(f"{server.url}/healthz/")
            assert status == 200


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
        server = ObservabilityServer(registry, service=_StubService(["cube_a"]))
        with server:
            status, _, body = _get(f"{server.url}/healthz")
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "degraded"
        assert payload["degraded_cubes"] == ["cube_a"]
        assert payload["in_flight"] == 2

    def test_healthy_service_reports_200(self, registry):
        with ObservabilityServer(registry, service=_StubService([])) as server:
            status, _, body = _get(f"{server.url}/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"


class TestExplainRoutes:
    def test_explain_index_and_lookup(self, registry):
        from repro.obs.explain import PlanCache

        plans = PlanCache()
        plans.put("fp_a", {"backend": "array", "analyzed": False})
        with ObservabilityServer(registry, plans=plans) as server:
            status, content_type, body = _get(f"{server.url}/explain")
            assert status == 200
            assert content_type.startswith("application/json")
            index = json.loads(body)
            assert index == {"fingerprints": ["fp_a"], "count": 1}

            status, _, body = _get(f"{server.url}/explain/fp_a")
            assert status == 200
            assert json.loads(body)["backend"] == "array"

    def test_explain_unknown_fingerprint_404(self, registry):
        from repro.obs.explain import PlanCache

        with ObservabilityServer(registry, plans=PlanCache()) as server:
            status, _, body = _get(f"{server.url}/explain/deadbeef")
        assert status == 404
        assert "no plan" in json.loads(body)["error"]

    def test_explain_detached_serves_empty_index(self, registry):
        with ObservabilityServer(registry) as server:
            status, _, body = _get(f"{server.url}/explain")
            assert status == 200
            assert json.loads(body) == {"fingerprints": [], "count": 0}
            status, _, _ = _get(f"{server.url}/explain/anything")
            assert status == 404

    def test_routes_listed_in_404(self, registry):
        with ObservabilityServer(registry) as server:
            _, _, body = _get(f"{server.url}/nope")
        routes = json.loads(body)["routes"]
        assert "/explain/<fingerprint>" in routes
        assert "/heatmap/<cube>" in routes


class TestHeatmapRoute:
    def test_heatmap_detached_404(self, registry):
        with ObservabilityServer(registry) as server:
            status, _, body = _get(f"{server.url}/heatmap/cube")
        assert status == 404
        assert "no service" in json.loads(body)["error"]

    def test_heatmap_served_from_live_service(self):
        from repro.olap import ConsolidationQuery, ExecutionOptions
        from repro.serve import QueryService

        from tests.serve.conftest import CONFIG, fresh_engine

        engine = fresh_engine()
        query = ConsolidationQuery.build(
            CONFIG.name,
            group_by={f"dim{d}": f"h{d}1" for d in range(CONFIG.ndim)},
        )
        with QueryService(engine) as service:
            service.execute(query)
            server = ObservabilityServer(engine.db.metrics, service=service)
            with server:
                status, content_type, body = _get(
                    f"{server.url}/heatmap/{CONFIG.name}"
                )
                assert status == 200
                assert content_type.startswith("application/json")
                payload = json.loads(body)
                assert payload["cube"] == CONFIG.name
                assert payload["total_accesses"] > 0
                assert len(payload["accesses"]) <= payload["n_chunks"]
                assert payload["hottest"]

                status, _, body = _get(f"{server.url}/heatmap/unknown")
                assert status == 404
                assert "unknown" in json.loads(body)["error"]

    def test_service_explain_payload_served_end_to_end(self):
        from repro.olap import ConsolidationQuery, ExecutionOptions
        from repro.serve import QueryService

        from tests.serve.conftest import CONFIG, fresh_engine

        engine = fresh_engine()
        query = ConsolidationQuery.build(
            CONFIG.name,
            group_by={f"dim{d}": f"h{d}1" for d in range(CONFIG.ndim)},
        )
        with QueryService(engine) as service:
            plan = service.explain(
                query, ExecutionOptions(backend="array"), analyze=True
            )
            server = ObservabilityServer(engine.db.metrics, service=service)
            with server:
                status, _, body = _get(
                    f"{server.url}/explain/{plan.fingerprint}"
                )
            assert status == 200
            payload = json.loads(body)
            assert payload["analyzed"] is True
            assert payload["fingerprint"] == plan.fingerprint
            assert payload["execution"]["rows"] == plan.rows


class TestLifecycle:
    def test_stop_is_idempotent_and_start_restarts(self, registry):
        server = ObservabilityServer(registry)
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
        assert first_port != 0


class TestMemoryRoute:
    def test_404_without_accountant(self, registry):
        with ObservabilityServer(registry) as server:
            status, _, body = _get(f"{server.url}/memory")
        assert status == 404
        assert "no memory accountant" in json.loads(body)["error"]

    def test_breakdown_payload_and_top_param(self, registry):
        from repro.obs.memory import MemoryAccountant

        accountant = MemoryAccountant(budget_bytes=10_000)
        accountant.register_store(
            "cachey",
            lambda: 2_048.0,
            top_entries=lambda n: [
                {"key": f"k{i}", "bytes": 100 - i} for i in range(n)
            ],
        )
        server = ObservabilityServer(registry)
        server.memory = accountant
        with server:
            status, _, body = _get(f"{server.url}/memory?top=2")
        assert status == 200
        payload = json.loads(body)
        assert payload["budget_bytes"] == 10_000
        assert payload["total_resident_bytes"] == 2_048
        assert payload["stores"] == {"cachey": 2048}
        assert len(payload["top_entries"]) == 2
        assert payload["top_entries"][0]["store"] == "cachey"

    def test_route_defaults_from_attached_service(self):
        from repro.bench import bench_settings, build_cube_engine
        from repro.data import SyntheticCubeConfig
        from repro.serve import QueryService

        config = SyntheticCubeConfig(
            name="memcube",
            dim_sizes=(4, 4, 4),
            n_valid=32,
            chunk_shape=(2, 2, 2),
            seed=3,
        )
        engine = build_cube_engine(config, bench_settings("small"))
        with QueryService(engine) as service:
            server = ObservabilityServer(engine.db.metrics, service=service)
            with server:
                status, _, body = _get(f"{server.url}/memory")
            assert status == 200
            payload = json.loads(body)
            stores = payload["stores"]
            for expected in (
                "buffer_pool",
                "chunk_cache",
                "result_cache",
                "slowlog",
                "traces",
                "plan_cache",
            ):
                assert expected in stores, stores
            assert payload["total_resident_bytes"] == sum(stores.values())


def test_importing_the_engine_does_not_import_http_server():
    """``ObservabilityServer`` resolves lazily: the storage layer imports
    ``repro.obs.histogram`` and so this package, and must not drag the
    stdlib HTTP server into every process.  (A subprocess: this one
    imported it long ago.)"""
    import os
    import subprocess
    import sys

    code = (
        "import sys\n"
        "import repro.olap.engine\n"
        "assert 'http.server' not in sys.modules, 'http.server imported'\n"
        "from repro.obs import ObservabilityServer\n"
        "import repro.obs\n"
        "assert 'ObservabilityServer' in repro.obs.__all__\n"
        "assert ObservabilityServer.__module__ == 'repro.obs.server'\n"
        "assert 'http.server' in sys.modules\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
