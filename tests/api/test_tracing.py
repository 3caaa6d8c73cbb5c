"""Distributed tracing across the HTTP API surface.

Every response carries ``X-Trace-Id`` (and the same id inside its JSON
body), an inbound well-formed header is adopted verbatim, traces
resolve at ``/trace/id/<trace_id>`` on the port that issued them, a
scraper's polling cannot evict them, a stale-grain fallback's trace
links to the rollup rebuild it scheduled (and the build links back),
and the opt-in structured access log emits one JSON line per request.
"""

import io
import json
import re
import time
import urllib.error
import urllib.request

import pytest

from repro.api.server import ApiServer
from repro.obs.tracing import MAX_ROOTS_PER_TRACE
from repro.util.jsonschema_lite import validate

from .conftest import CONFIG

HEX32 = re.compile(r"^[0-9a-f]{32}$")
TRACE_SCHEMA = json.load(
    open("benchmarks/schemas/trace.schema.json", encoding="utf-8")
)

AGG = "/cube/sales/aggregate?drilldown=dim0:h01,dim1:h11"


@pytest.fixture
def server(stack):
    engine, service, endpoint = stack
    with ApiServer(endpoint) as srv:
        yield engine, service, endpoint, srv


@pytest.fixture
def logged_server(stack):
    engine, service, endpoint = stack
    stream = io.StringIO()
    with ApiServer(endpoint, access_log=True, access_log_stream=stream) as srv:
        yield engine, service, endpoint, srv, stream


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


def _warm(endpoint):
    cube = endpoint.model.cube("sales")
    for rollup in cube.rollups:
        endpoint.router.rows_for(cube, rollup, "sum")


def _wait_for(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.02)
    raise AssertionError("condition not met before timeout")


class TestResponseIdentity:
    def test_every_response_carries_matching_header_and_body_id(self, server):
        _, _, endpoint, srv = server
        _warm(endpoint)
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
        _warm(endpoint)
        inbound = "ab" * 16
        _, payload, headers = _get(
            srv.url + AGG, headers={"X-Trace-Id": inbound}
        )
        assert headers.get("X-Trace-Id") == inbound
        assert payload["trace_id"] == inbound

    def test_malformed_inbound_header_replaced_not_propagated(self, server):
        _, _, endpoint, srv = server
        _warm(endpoint)
        _, payload, headers = _get(
            srv.url + AGG, headers={"X-Trace-Id": "not-a-trace-id"}
        )
        assert headers.get("X-Trace-Id") != "not-a-trace-id"
        assert HEX32.match(payload["trace_id"])

    def test_distinct_requests_get_distinct_traces(self, server):
        _, _, endpoint, srv = server
        _warm(endpoint)
        ids = {_get(srv.url + AGG)[2].get("X-Trace-Id") for _ in range(3)}
        assert len(ids) == 3


class TestTraceResolution:
    def test_api_trace_resolves_on_observability_endpoint(self, server):
        _, _, endpoint, srv = server
        _warm(endpoint)
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
        _warm(endpoint)
        _, _, headers = _get(srv.url + AGG)
        status, payload, _ = _get(f"{srv.url}/traces")
        assert status == 200
        listed = {entry["trace_id"] for entry in payload["traces"]}
        assert headers["X-Trace-Id"] in listed

    def test_a_scraper_cannot_evict_a_query_trace(self, server):
        _, service, endpoint, srv = server
        _warm(endpoint)
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
        into one record, whose roots and bytes stop growing at the cap."""
        _, service, endpoint, srv = server
        _warm(endpoint)
        reused = {"X-Trace-Id": "ef" * 16}
        resident = []
        for _ in range(2):
            for _ in range(MAX_ROOTS_PER_TRACE):
                assert _get(srv.url + AGG, headers=reused)[0] == 200
            resident.append(service.traces.resident_bytes())
        assert service.traces.keys() == ["ef" * 16]
        record = service.traces.get("ef" * 16)
        assert len(record.roots) == MAX_ROOTS_PER_TRACE
        assert resident[1] == resident[0]
        dropped = service.traces.counters.get("traces.roots_dropped")
        assert dropped >= MAX_ROOTS_PER_TRACE


class TestAsyncCausality:
    def test_stale_fallback_links_to_the_build_it_scheduled(self, server):
        engine, service, endpoint, srv = server
        _warm(endpoint)
        _wait_for(lambda: not endpoint.router._inflight)
        # a write patches the grain; eviction is what leaves a routed
        # request without one (as an append or an array rebuild would)
        endpoint.router.reclaim_grains(0)
        status, payload, headers = _get(srv.url + AGG)
        assert status == 200
        assert payload["route"]["source"] == "base"  # the stale fallback
        trace_id = headers["X-Trace-Id"]

        record = _wait_for(lambda: service.traces.get(trace_id))
        schedules = [
            link for link in record.links if link["kind"] == "schedules"
        ]
        assert len(schedules) == 1
        build_id = schedules[0]["trace_id"]
        assert HEX32.match(build_id)

        def _build_with_back_link():
            # the record turns resident at schedule time; the
            # follows_from link lands when the rebuild worker runs
            record = service.traces.get(build_id)
            if record is None:
                return None
            if any(link["kind"] == "follows_from" for link in record.links):
                return record
            return None

        build = _wait_for(_build_with_back_link)
        assert build.origin == "rollup-refresh"
        assert {
            "kind": "follows_from", "trace_id": trace_id,
        }.items() <= {
            k: v
            for link in build.links
            if link["kind"] == "follows_from"
            for k, v in link.items()
        }.items()

    def test_deduplicated_schedule_links_to_running_build(self, server):
        engine, service, endpoint, srv = server
        cube = endpoint.model.cube("sales")
        rollup = cube.rollups[1]  # mid01: the grain AGG routes to
        first = endpoint.router.schedule_refresh(cube, rollup, "sum")
        second = endpoint.router.schedule_refresh(cube, rollup, "sum")
        assert second == first  # same in-flight build, same identity
        _wait_for(lambda: not endpoint.router._inflight)


class TestAccessLog:
    def test_one_json_line_per_request(self, logged_server):
        _, _, endpoint, srv, stream = logged_server
        _warm(endpoint)
        _, _, headers = _get(srv.url + AGG)
        _get(srv.url + "/cube/nope/model")

        def both_lines():
            # the line is written just after the response bytes, so the
            # client can observe the response before the log lands
            entries = [
                json.loads(line)
                for line in stream.getvalue().splitlines()
                if line.strip()
            ]
            return entries if len(entries) == 2 else None

        lines = _wait_for(both_lines)
        # lines are written after the response bytes on separate handler
        # threads, so arrival order is not guaranteed — match by status
        by_status = {entry["status"]: entry for entry in lines}
        ok, err = by_status[200], by_status[404]
        assert ok["method"] == "GET"
        assert ok["path"].startswith("/cube/sales/aggregate")
        assert ok["trace_id"] == headers["X-Trace-Id"]
        assert ok["latency_ms"] >= 0
        assert ok["route"] == "rollup"
        assert err["path"] == "/cube/nope/model"

    def test_access_log_off_by_default(self, server):
        _, _, endpoint, srv = server
        _warm(endpoint)
        # nothing to assert on a stream (there is none); the default
        # path must simply keep serving with logging disabled
        status, _, _ = _get(srv.url + AGG)
        assert status == 200


class TestRollupStats:
    def test_rollups_route_reports_resident_rows(self, server):
        _, _, endpoint, srv = server
        _warm(endpoint)
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
        _warm(endpoint)
        with urllib.request.urlopen(srv.url + "/metrics", timeout=30) as r:
            text = r.read().decode("utf-8")
        assert "rollup_resident_rows" in text
        assert "rollup_rows_" in text
