"""Distributed tracing across the HTTP API surface.

Every response carries ``X-Trace-Id`` (and the same id inside its JSON
body), an inbound well-formed header is adopted verbatim, traces
resolve at ``/trace/id/<trace_id>`` on the port that issued them, a
scraper's polling cannot evict them, a request that rebuilds its grain
holds the build's spans in its own trace, and each request's trace
record carries its access-log fields (method, path, status, latency
and route) while the server itself prints nothing per request.
"""

import json
import re
import urllib.error
import urllib.request

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import MAX_ROOTS_PER_TRACE
from repro.util.jsonschema_lite import validate

from .conftest import CONFIG, warm_rollups

HEX32 = re.compile(r"^[0-9a-f]{32}$")
TRACE_SCHEMA = json.load(
    open("benchmarks/schemas/trace.schema.json", encoding="utf-8")
)

AGG = "/cube/sales/aggregate?drilldown=dim0:h01,dim1:h11"


def _get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (
                response.status,
                json.loads(response.read()),
                dict(response.headers),
            )
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


class TestResponseIdentity:
    def test_every_response_carries_matching_header_and_body_id(self, server):
        _, _, endpoint, srv = server
        warm_rollups(endpoint)
        status, payload, headers = _get(srv.url + AGG)
        assert status == 200
        trace_id = headers.get("X-Trace-Id")
        assert trace_id and HEX32.match(trace_id)
        assert payload["trace_id"] == trace_id

    def test_error_bodies_carry_the_id_too(self, server):
        _, _, _, srv = server
        status, payload, headers = _get(srv.url + "/cube/nope/model")
        assert status == 404
        assert payload["trace_id"] == headers.get("X-Trace-Id")

    def test_inbound_header_adopted_verbatim(self, server):
        _, _, endpoint, srv = server
        warm_rollups(endpoint)
        inbound = "ab" * 16
        _, payload, headers = _get(
            srv.url + AGG, headers={"X-Trace-Id": inbound}
        )
        assert headers.get("X-Trace-Id") == inbound
        assert payload["trace_id"] == inbound

    def test_malformed_inbound_header_replaced_not_propagated(self, server):
        _, _, endpoint, srv = server
        warm_rollups(endpoint)
        _, payload, headers = _get(
            srv.url + AGG, headers={"X-Trace-Id": "not-a-trace-id"}
        )
        assert headers.get("X-Trace-Id") != "not-a-trace-id"
        assert HEX32.match(payload["trace_id"])

    def test_distinct_requests_get_distinct_traces(self, server):
        _, _, endpoint, srv = server
        warm_rollups(endpoint)
        ids = {_get(srv.url + AGG)[2].get("X-Trace-Id") for _ in range(3)}
        assert len(ids) == 3


class TestTraceResolution:
    def test_api_trace_resolves_on_observability_endpoint(self, server):
        _, _, endpoint, srv = server
        warm_rollups(endpoint)
        _, _, headers = _get(srv.url + AGG)
        trace_id = headers["X-Trace-Id"]
        status, payload, _ = _get(f"{srv.url}/trace/id/{trace_id}")
        assert status == 200
        assert validate(payload, TRACE_SCHEMA) in (None, [])
        assert payload["trace_id"] == trace_id
        assert payload["attrs"]["method"] == "GET"
        assert payload["attrs"]["http_status"] == 200

    def test_unknown_trace_id_404s(self, server):
        _, _, _, srv = server
        status, _, _ = _get(f"{srv.url}/trace/id/{'cd' * 16}")
        assert status == 404

    def test_traces_index_lists_recent_requests(self, server):
        _, _, endpoint, srv = server
        warm_rollups(endpoint)
        _, _, headers = _get(srv.url + AGG)
        status, payload, _ = _get(f"{srv.url}/traces")
        assert status == 200
        listed = {entry["trace_id"] for entry in payload["traces"]}
        assert headers["X-Trace-Id"] in listed

    def test_a_scraper_cannot_evict_a_query_trace(self, server):
        _, service, endpoint, srv = server
        warm_rollups(endpoint)
        trace_id = _get(srv.url + AGG)[2]["X-Trace-Id"]
        for _ in range(service.traces.capacity + 44):
            with urllib.request.urlopen(srv.url + "/metrics", timeout=30):
                pass
        for path in ("/traces", "/healthz", "/traces", "/healthz"):
            assert _get(srv.url + path)[0] == 200
        record = service.traces.get(trace_id)
        assert record is not None and record.name.startswith("GET /cube/")
        assert service.traces.counters.get("traces.evicted") == 0

    def test_a_reused_trace_id_stays_bounded(self, server):
        """A client that sends one ``X-Trace-Id`` on every request merges
        into one record, whose roots and bytes stop growing at the cap —
        even when every request rebuilds its grain."""
        _, service, endpoint, srv = server
        warm_rollups(endpoint)
        reused = {"X-Trace-Id": "ef" * 16}
        resident = []
        for _ in range(2):
            for _ in range(MAX_ROOTS_PER_TRACE):
                endpoint.router.reclaim_grains(0)
                assert _get(srv.url + AGG, headers=reused)[0] == 200
            sizes = service.traces.top_entries(len(service.traces))
            resident.append(
                next(e["bytes"] for e in sizes if e["key"] == "ef" * 16)
            )
        record = service.traces.get("ef" * 16)
        assert len(record.roots) == MAX_ROOTS_PER_TRACE
        assert resident[1] == resident[0]
        counters = service.traces.counters
        assert counters.get("traces.roots_dropped") >= MAX_ROOTS_PER_TRACE


def _spans(node):
    yield node
    for child in node["children"]:
        yield from _spans(child)


class TestInlineBuild:
    def test_the_request_trace_holds_the_build_spans(self, server):
        _, _, endpoint, srv = server
        # a write patches the grain; eviction is what leaves a routed
        # request without one (as an append or an array rebuild would)
        endpoint.router.reclaim_grains(0)
        status, payload, headers = _get(srv.url + AGG)
        assert status == 200
        assert payload["route"]["source"] == "rollup"
        status, trace, _ = _get(f"{srv.url}/trace/id/{headers['X-Trace-Id']}")
        assert status == 200
        assert validate(trace, TRACE_SCHEMA) in (None, [])
        builds = [
            span
            for root in trace["roots"]
            for span in _spans(root)
            if span["name"] == "rollup.build"
        ]
        # the engine builds it, so under the physical cube's name
        assert [span["attrs"] for span in builds] == [
            {"cube": CONFIG.name, "rollup": "mid01"}
        ]
        # the one chunk walk is the request's own work
        assert builds[0]["io"].get("cells_scanned", 0) > 0


class TestHandlerSpan:
    """The handler's ``api.request`` span is timed only: it takes no
    registry snapshot, so a cached request takes none at all, and its
    ``io`` never copies the counters the service's spans below it (or
    another request's) carry."""

    @pytest.fixture
    def snapshot_calls(self, monkeypatch):
        calls = []
        original = MetricsRegistry.snapshot_by_source

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(MetricsRegistry, "snapshot_by_source", counted)
        return calls

    def _request_root(self, srv, trace_id):
        status, trace, _ = _get(f"{srv.url}/trace/id/{trace_id}")
        assert status == 200
        (root,) = [root for root in trace["roots"] if root["name"] == "api.request"]
        return root

    def test_a_cached_request_takes_no_snapshot(self, server, snapshot_calls):
        _, _, endpoint, srv = server
        warm_rollups(endpoint)
        status, _, headers = _get(srv.url + AGG)  # a routed miss
        assert status == 200
        missed = headers["X-Trace-Id"]
        snapshot_calls.clear()
        status, payload, headers = _get(srv.url + AGG)
        assert status == 200
        assert payload["route"]["source"] == "rollup"
        assert snapshot_calls == []
        for trace_id in (missed, headers["X-Trace-Id"]):
            assert self._request_root(srv, trace_id)["io"] == {}


class TestAccessLog:
    """Each request's access-log entry is its trace record: one JSON
    document per request, resolvable by the id the response carried."""

    def test_one_json_line_per_request(self, server):
        _, _, endpoint, srv = server
        warm_rollups(endpoint)
        ok_id = _get(srv.url + AGG)[2]["X-Trace-Id"]
        err_id = _get(srv.url + "/cube/nope/model")[2]["X-Trace-Id"]
        _, ok, _ = _get(f"{srv.url}/trace/id/{ok_id}")
        _, err, _ = _get(f"{srv.url}/trace/id/{err_id}")
        assert ok["trace_id"] == ok_id
        assert ok["attrs"]["method"] == "GET"
        assert ok["attrs"]["path"] == "/cube/sales/aggregate"
        assert ok["attrs"]["http_status"] == 200
        assert ok["attrs"]["route"] == "rollup"
        assert ok["latency_s"] >= 0
        # a client error is recorded too, without a route
        assert err["trace_id"] == err_id
        assert err["attrs"]["path"] == "/cube/nope/model"
        assert err["attrs"]["http_status"] == 404
        assert "route" not in err["attrs"]

    def test_access_log_off_by_default(self, server, capfd):
        _, _, endpoint, srv = server
        warm_rollups(endpoint)
        capfd.readouterr()
        status, _, _ = _get(srv.url + AGG)
        assert status == 200
        _get(srv.url + "/cube/nope/model")
        # the server writes no per-request line of its own
        out, err = capfd.readouterr()
        assert out == ""
        assert err == ""


class TestRollupStats:
    def test_rollups_route_reports_resident_rows(self, server):
        _, _, endpoint, srv = server
        warm_rollups(endpoint)
        status, payload, _ = _get(srv.url + "/rollups")
        assert status == 200
        # one entry per grain (every aggregate rides in it)
        assert payload["resident_entries"] == 2
        assert set(payload["grains"]) == {"sales/coarse", "sales/mid01"}
        assert payload["resident_rows"] == sum(
            payload["grains"].values()
        ) > 0
        assert payload["resident_bytes"] == sum(
            stats["resident_bytes"] for stats in payload["grain_stats"].values()
        ) > 0

    def test_resident_rows_gauge_on_metrics(self, server):
        _, _, endpoint, srv = server
        warm_rollups(endpoint)
        with urllib.request.urlopen(srv.url + "/metrics", timeout=30) as r:
            text = r.read().decode("utf-8")
        assert "rollup_resident_rows" in text
        assert "rollup_rows_" in text
