"""HTTP surface: happy paths validate against the checked-in schemas,
every error path maps to a structured 4xx (never a 500), and the server
survives concurrent reads, writes, and garbage."""

import inspect
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api.server import (
    MAX_BODY_BYTES,
    ApiEndpoint,
    ApiServer,
    RequestParser,
)
from repro.data import generate_fact_rows
from repro.errors import (
    CorruptWALError,
    RetryExhaustedError,
    TransientDiskError,
)
from repro.util.jsonschema_lite import validate

from .conftest import CONFIG, degrade, http_get, payload_cells, warm_rollups

RESPONSE_SCHEMA = json.load(
    open("benchmarks/schemas/api_response.schema.json", encoding="utf-8")
)
PLAN_SCHEMA = json.load(
    open("benchmarks/schemas/explain_plan.schema.json", encoding="utf-8")
)


def test_constructors_take_only_what_callers_set():
    # no access log (a request's trace record holds its line) and one
    # body cap, MAX_BODY_BYTES, beside the other request caps
    assert list(inspect.signature(ApiEndpoint).parameters) == [
        "engine", "service", "model"
    ]
    assert list(inspect.signature(ApiServer).parameters) == [
        "endpoint", "host", "port"
    ]


def _post(url, body, raw=False):
    data = body if raw else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _base_cells(service, endpoint, params):
    """The array's answer to one request, through the service: pinned,
    because ``auto`` answers from a covering grain."""
    request = RequestParser(endpoint.model.cube("sales")).from_params(params)
    return sorted(service.execute(request.query, "array").rows)


def _wait_for_counter(counters, name, value, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while counters.get(name) < value and time.monotonic() < deadline:
        time.sleep(0.01)
    assert counters.get(name) == value


class TestInfoEndpoints:
    def test_root_lists_routes(self, server):
        _, _, _, srv = server
        status, payload = http_get(srv.url + "/")
        assert status == 200
        assert any("aggregate" in route for route in payload["routes"])

    def test_cubes(self, server):
        _, _, _, srv = server
        status, payload = http_get(srv.url + "/cubes")
        assert status == 200
        assert payload["cubes"] == ["sales"]

    def test_cube_model(self, server):
        _, _, _, srv = server
        status, payload = http_get(srv.url + "/cube/sales/model")
        assert status == 200
        assert payload["cube"] == CONFIG.name
        assert [d["name"] for d in payload["dimensions"]] == [
            "dim0", "dim1", "dim2",
        ]

    def test_healthz(self, server):
        _, _, _, srv = server
        status, payload = http_get(srv.url + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"

    def test_metrics_exports_api_counters(self, server):
        _, _, _, srv = server
        http_get(srv.url + "/cubes")
        with urllib.request.urlopen(srv.url + "/metrics", timeout=30) as r:
            text = r.read().decode("utf-8")
        assert "api" in text


class TestAggregate:
    def test_get_response_validates_against_schema(self, server):
        _, _, endpoint, srv = server
        warm_rollups(endpoint)
        status, payload = http_get(
            srv.url + "/cube/sales/aggregate?drilldown=dim0"
        )
        assert status == 200
        validate(payload, RESPONSE_SCHEMA)
        assert payload["route"]["source"] == "rollup"
        assert payload["route"]["rollup"] == "coarse"
        assert payload["cell_count"] == len(payload["cells"])
        assert set(payload["cells"][0]) == {"dim0.h02", "volume"}

    def test_an_evicted_grain_is_rebuilt_by_the_next_request(self, server):
        _, service, endpoint, srv = server
        url = srv.url + "/cube/sales/aggregate?drilldown=dim1"
        # grains are built at start: the very first request is routed
        status, first = http_get(url)
        assert status == 200
        assert first["route"]["source"] == "rollup"
        # an evicted grain is a never-built one: the next request builds it
        rebuilds = endpoint.router.counters.get("rollup.rebuilds")
        endpoint.router.reclaim_grains(0)
        status, rebuilt = http_get(url)
        assert endpoint.router.counters.get("rollup.rebuilds") == rebuilds + 1
        assert status == 200
        assert rebuilt["route"]["source"] == "rollup"
        assert rebuilt["route"]["rollup"] == "coarse"
        assert payload_cells(rebuilt) == payload_cells(first) == _base_cells(
            service, endpoint, {"drilldown": "dim1"}
        )
        assert endpoint.counters.get("api.stale_fallbacks") == 0
        assert all(t.name != "rollup-refresh" for t in threading.enumerate())

    def test_routed_and_base_agree(self, server):
        _, _, endpoint, srv = server
        warm_rollups(endpoint)
        path = "/cube/sales/aggregate?drilldown=dim0:h01,dim1:h11&cut=dim1.h11:AA0;AA1"
        _, routed = http_get(srv.url + path)
        assert routed["route"]["source"] == "rollup"
        # key-level drilldown forces the base engine for the same shape
        _, base = http_get(
            srv.url
            + "/cube/sales/aggregate?drilldown=dim0:h01,dim1:h11,dim2:d2&cut=dim1.h11:AA0;AA1"
        )
        assert base["route"]["source"] == "base"
        totals = {}
        for cell in base["cells"]:
            key = (cell["dim0.h01"], cell["dim1.h11"])
            totals[key] = totals.get(key, 0) + cell["volume"]
        routed_totals = {
            (c["dim0.h01"], c["dim1.h11"]): c["volume"]
            for c in routed["cells"]
        }
        assert routed_totals == totals

    def test_post_body_equivalent_to_get(self, server):
        _, _, endpoint, srv = server
        warm_rollups(endpoint)
        url = srv.url + "/cube/sales/aggregate"
        _, via_get = http_get(url + "?drilldown=dim0:h01&aggregate=max")
        status, via_post = _post(
            url,
            {"drilldown": [{"dimension": "dim0", "level": "h01"}],
             "aggregate": "max"},
        )
        assert status == 200
        validate(via_post, RESPONSE_SCHEMA)
        assert via_post["cells"] == via_get["cells"]

    @pytest.mark.parametrize(
        "cut, echoed",
        [
            ("dim1.h11:AA0..AA1",
             {"dimension": "dim1", "level": "h11", "range": ["AA0", "AA1"]}),
            ("dim2.h21:AA1;AA2",
             {"dimension": "dim2", "level": "h21", "values": ["AA1", "AA2"]}),
            ("dim1.h11:..AA1",
             {"dimension": "dim1", "level": "h11", "range": [None, "AA1"]}),
            ({"dimension": "dim1", "level": "h11", "range": ["AA0", None]},
             {"dimension": "dim1", "level": "h11", "range": ["AA0", None]}),
            ({"dimension": "dim2", "values": ["BB1"]},
             {"dimension": "dim2", "level": "h22", "values": ["BB1"]}),
        ],
        ids=["get-range", "get-in-list", "get-open-low", "post-open-high",
             "post-values-default-level"],
    )
    def test_range_cut_over_get(self, server, cut, echoed):
        # a GET cut is a string, a POST cut an object; both echo as one
        # {"dimension", "level", "values" | "range"} object
        _, _, endpoint, srv = server
        warm_rollups(endpoint)
        url = srv.url + "/cube/sales/aggregate"
        if isinstance(cut, str):
            status, payload = http_get(f"{url}?drilldown=dim0&cut={cut}")
        else:
            status, payload = _post(url, {"drilldown": ["dim0"], "cut": [cut]})
        assert status == 200
        assert payload["cuts"] == [echoed]

    def test_explain_plan_validates_and_routes(self, server):
        _, _, endpoint, srv = server
        warm_rollups(endpoint)
        status, payload = http_get(
            srv.url + "/cube/sales/aggregate?drilldown=dim0&explain=1"
        )
        assert status == 200
        plan = payload["explain"]
        validate(plan, PLAN_SCHEMA)
        assert plan["backend"] == "rollup"
        assert plan["plan"]["op"] == "rollup.route"
        assert plan["plan"]["children"][0]["op"] == "rollup.scan"
        assert not plan["analyzed"]

    def test_explain_analyze_binds_actuals(self, server):
        _, _, endpoint, srv = server
        warm_rollups(endpoint)
        status, payload = http_get(
            srv.url
            + "/cube/sales/aggregate?drilldown=dim0&explain=1&analyze=1"
        )
        assert status == 200
        plan = payload["explain"]
        validate(plan, PLAN_SCHEMA)
        assert plan["analyzed"]
        scan = plan["plan"]["children"][0]
        assert (
            scan["actuals"]["rollup.rows_scanned"]
            == scan["estimates"]["rollup.rows_scanned"]
        )

    def test_base_explain_still_served(self, server):
        _, _, _, srv = server
        status, payload = http_get(
            srv.url + "/cube/sales/aggregate?drilldown=dim0:d0&explain=1"
        )
        assert status == 200
        assert payload["route"]["source"] == "base"
        validate(payload["explain"], PLAN_SCHEMA)
        assert payload["explain"]["backend"] != "rollup"

    def test_base_analyze_runs_the_query_once(self, server):
        engine, _, _, srv = server
        url = srv.url + "/cube/sales/aggregate?drilldown=dim2:d2"
        metrics = engine.db.metrics

        def engine_runs():
            if "engine.query_seconds" not in metrics.histogram_names():
                return 0
            return metrics.histogram("engine.query_seconds").count

        before = engine_runs()
        status, analyzed = http_get(url + "&explain=1&analyze=1")
        assert status == 200
        assert analyzed["route"]["source"] == "base"
        assert analyzed["explain"]["analyzed"]
        # the answer's rows are the analyzed run's: one engine run
        assert engine_runs() == before + 1
        assert analyzed["explain"]["execution"]["rows"] == analyzed["cell_count"]
        status, plain = http_get(url)
        assert status == 200
        assert plain["cells"] == analyzed["cells"]
        assert engine_runs() == before + 1


def _error(payload):
    assert set(payload) == {"error", "trace_id"}
    assert set(payload["error"]) == {"kind", "message", "status"}
    return payload["error"]


class TestErrorPaths:
    def test_unknown_route_404(self, server):
        _, _, _, srv = server
        status, payload = http_get(srv.url + "/bogus")
        assert status == 404
        assert _error(payload)["kind"] == "not_found"

    def test_post_to_get_route_404(self, server):
        _, _, _, srv = server
        status, payload = _post(srv.url + "/cubes", {"x": 1})
        assert status == 404
        assert _error(payload)["kind"] == "not_found"

    def test_unknown_cube_404(self, server):
        _, _, _, srv = server
        status, payload = http_get(
            srv.url + "/cube/nope/aggregate?drilldown=dim0"
        )
        assert status == 404
        assert "nope" in _error(payload)["message"]

    def test_unknown_dimension_404(self, server):
        _, _, _, srv = server
        status, payload = http_get(
            srv.url + "/cube/sales/aggregate?drilldown=never"
        )
        assert status == 404
        assert _error(payload)["kind"] == "not_found"

    def test_unknown_level_404(self, server):
        _, _, _, srv = server
        status, _ = http_get(
            srv.url + "/cube/sales/aggregate?drilldown=dim0:h99"
        )
        assert status == 404

    def test_unknown_measure_404(self, server):
        _, _, _, srv = server
        status, _ = http_get(
            srv.url + "/cube/sales/aggregate?drilldown=dim0&measure=gold"
        )
        assert status == 404

    def test_missing_drilldown_400(self, server):
        _, _, _, srv = server
        status, payload = http_get(srv.url + "/cube/sales/aggregate")
        assert status == 400
        assert _error(payload)["kind"] == "bad_request"

    def test_bad_aggregate_400(self, server):
        _, _, _, srv = server
        status, payload = http_get(
            srv.url
            + "/cube/sales/aggregate?drilldown=dim0&aggregate=median"
        )
        assert status == 400
        assert "median" in _error(payload)["message"]

    def test_duplicate_drilldown_dimension_400(self, server):
        _, _, _, srv = server
        status, _ = http_get(
            srv.url + "/cube/sales/aggregate?drilldown=dim0,dim0:h01"
        )
        assert status == 400

    def test_bad_cut_syntax_400(self, server):
        _, _, _, srv = server
        status, _ = http_get(
            srv.url + "/cube/sales/aggregate?drilldown=dim0&cut=dim0-h01"
        )
        assert status == 400

    def test_non_integer_key_cut_400(self, server):
        _, _, _, srv = server
        status, payload = http_get(
            srv.url + "/cube/sales/aggregate?drilldown=dim0&cut=dim0.d0:zzz"
        )
        assert status == 400
        assert "integer" in _error(payload)["message"]

    @pytest.mark.parametrize(
        "cut",
        [
            {"values": [1.5]},
            {"values": [2.9]},
            {"values": [True]},
            {"range": [0.5, 2]},
            {"range": [False, None]},
        ],
        ids=["float", "float-up", "bool", "range-float", "range-bool"],
    )
    def test_non_integer_key_cut_in_body_400(self, server, cut):
        # a float or a bool would otherwise answer for the key it
        # truncates to, a wrong number from outside input
        _, _, _, srv = server
        status, payload = _post(
            srv.url + "/cube/sales/aggregate",
            {
                "drilldown": ["dim0"],
                "cut": [{"dimension": "dim0", "level": "d0", **cut}],
            },
        )
        assert status == 400
        assert "integer" in _error(payload)["message"]

    def test_integer_key_cut_in_body_is_served(self, server):
        _, _, _, srv = server
        _, expected = http_get(
            srv.url + "/cube/sales/aggregate?drilldown=dim0&cut=dim0.d0:1"
        )
        for values in ([1], ["1"]):
            status, payload = _post(
                srv.url + "/cube/sales/aggregate",
                {
                    "drilldown": ["dim0"],
                    "cut": [{"dimension": "dim0", "level": "d0", "values": values}],
                },
            )
            assert status == 200
            assert payload_cells(payload) == payload_cells(expected)

    def test_negative_content_length_400(self, server):
        # rfile.read(-1) reads to EOF: a client that keeps its socket
        # open would hold the handler thread with no answer
        _, _, _, srv = server
        body = b'{"drilldown": ["dim0"]}'
        with socket.create_connection((srv.host, srv.port), timeout=3) as sock:
            sock.sendall(
                b"POST /cube/sales/aggregate HTTP/1.1\r\n"
                b"Host: localhost\r\nContent-Type: application/json\r\n"
                b"Content-Length: -1\r\n\r\n" + body
            )
            status_line = sock.makefile("rb").readline()
        assert status_line.split()[1] == b"400"

    def test_malformed_json_body_400(self, server):
        _, _, _, srv = server
        status, payload = _post(
            srv.url + "/cube/sales/aggregate", b"{nope", raw=True
        )
        assert status == 400
        assert "not JSON" in _error(payload)["message"]

    def test_empty_body_400(self, server):
        _, _, _, srv = server
        status, payload = _post(
            srv.url + "/cube/sales/aggregate", b"", raw=True
        )
        assert status == 400
        assert "empty" in _error(payload)["message"]

    def test_unknown_body_key_400(self, server):
        _, _, _, srv = server
        status, payload = _post(
            srv.url + "/cube/sales/aggregate",
            {"drilldown": ["dim0"], "bogus": 1},
        )
        assert status == 400
        assert "bogus" in _error(payload)["message"]

    def test_oversized_body_413(self, server):
        _, _, _, srv = server
        filler = "x" * (MAX_BODY_BYTES + 1)
        status, payload = _post(
            srv.url + "/cube/sales/aggregate",
            {"drilldown": ["dim0"], "pad": filler},
        )
        assert status == 413
        assert _error(payload)["kind"] == "too_large"

    def test_malformed_numbers_on_introspection_routes_400(self, server):
        _, _, endpoint, srv = server
        for path in (
            "/memory?top=nan",
            "/memory?top=inf",
            "/memory?top=x",
            "/traces?limit=nan",
            "/traces?limit=-inf",
            "/traces?limit=x",
        ):
            status, payload = http_get(srv.url + path)
            assert status == 400, path
            assert payload["error"]["kind"] == "bad_request"  # untraced
        # the connection survived each one, and none was a server error
        assert http_get(srv.url + "/memory?top=2")[0] == 200
        assert endpoint.counters.snapshot().get("api.responses_5xx", 0) == 0

    def test_repeated_parameter_400(self, server):
        # a second cut= used to replace the first: 200 with a filter
        # silently dropped
        _, _, _, srv = server
        aggregate = srv.url + "/cube/sales/aggregate?drilldown=dim0&"
        status, payload = http_get(aggregate + "cut=dim1.h11:AA0&cut=dim2.h21:AA1")
        assert status == 400
        message = _error(payload)["message"]
        assert "'cut'" in message
        assert "'|' joins cuts" in message and "',' joins drilldowns" in message
        status, payload = http_get(aggregate + "drilldown=dim1")
        assert status == 400
        assert "'drilldown'" in _error(payload)["message"]
        # the joined forms are the one way to send several
        assert http_get(aggregate + "cut=dim1.h11:AA0|dim2.h21:AA1")[0] == 200
        status, payload = http_get(srv.url + "/traces?limit=1&limit=2")
        assert status == 400
        assert payload["error"]["kind"] == "bad_request"  # untraced

    @pytest.mark.parametrize(
        "method", ["PUT", "DELETE", "PATCH", "OPTIONS", "HEAD"]
    )
    def test_other_methods_405(self, server, method):
        _, _, endpoint, srv = server
        before = endpoint.counters.get("api.responses_4xx")
        request = urllib.request.Request(
            srv.url + "/cube/sales/aggregate?drilldown=dim0", method=method
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=30)
        response = caught.value
        assert response.code == 405
        assert response.headers["Allow"] == "GET, POST"
        assert response.headers["Content-Type"].startswith("application/json")
        body = response.read()
        if method == "HEAD":
            assert body == b""
        else:
            error = json.loads(body)["error"]
            assert error["kind"] == "method_not_allowed"
            assert error["status"] == 405
            assert method in error["message"]
        assert endpoint.counters.get("api.responses_4xx") == before + 1

    def test_no_500s_recorded(self, server):
        _, _, endpoint, srv = server
        for path in (
            "/bogus",
            "/cube/nope/aggregate?drilldown=dim0",
            "/cube/sales/aggregate?aggregate=median&drilldown=dim0",
            "/cube/sales/aggregate",
        ):
            http_get(srv.url + path)
        snapshot = endpoint.counters.snapshot()
        assert snapshot.get("api.responses_5xx", 0) == 0
        assert snapshot.get("api.server_errors", 0) == 0
        assert snapshot["api.responses_4xx"] >= 4


class TestServerFaults:
    """A fault on the server's side is a 503, never the client's 400."""

    @pytest.mark.parametrize(
        "exc",
        [
            RetryExhaustedError("transient faults outlasted the retries"),
            CorruptWALError("bad CRC mid-log"),
            TransientDiskError("injected disk fault"),
        ],
        ids=lambda exc: type(exc).__name__,
    )
    def test_server_fault_is_503_degraded(self, server, monkeypatch, exc):
        _, service, endpoint, srv = server

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(service, "explain", fail)
        rejections = endpoint.counters.get("api.degraded_rejections")
        client_errors = endpoint.counters.get("api.client_errors")
        status, payload = http_get(
            srv.url
            + "/cube/sales/aggregate?drilldown=dim0:d0&explain=1&analyze=1"
        )
        assert status == 503
        assert _error(payload)["kind"] == "degraded"
        assert endpoint.counters.get("api.degraded_rejections") == rejections + 1
        assert endpoint.counters.get("api.client_errors") == client_errors


class TestConcurrency:
    def test_hammering_with_writes_never_500s(self, server):
        engine, service, endpoint, srv = server
        warm_rollups(endpoint)
        keys = tuple(generate_fact_rows(CONFIG)[0][:3])
        good = srv.url + "/cube/sales/aggregate?drilldown=dim0,dim1"
        bad = srv.url + "/cube/sales/aggregate?drilldown=dim0&cut=broken"
        statuses: list[int] = []
        lock = threading.Lock()

        def client(index: int) -> None:
            for turn in range(12):
                if (index + turn) % 3 == 0:
                    status, _ = http_get(bad)
                elif (index + turn) % 3 == 1:
                    status, _ = _post(
                        good.split("?")[0], {"drilldown": ["dim1"]}
                    )
                else:
                    status, _ = http_get(good)
                with lock:
                    statuses.append(status)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for _ in range(6):
            service.write_cell(CONFIG.name, keys, (777,))
        for thread in threads:
            thread.join()

        assert len(statuses) == 48
        assert all(status in (200, 400) for status in statuses)
        snapshot = endpoint.counters.snapshot()
        assert snapshot.get("api.responses_5xx", 0) == 0
        assert snapshot.get("api.server_errors", 0) == 0


class TestBuildFailures:
    """A grain that cannot be built costs its request the base answer,
    never an error of its own."""

    def test_a_transient_fault_in_the_build_is_answered_from_base(
        self, server, monkeypatch
    ):
        _, service, endpoint, srv = server

        def faulty_walk(*args, **kwargs):
            raise TransientDiskError("injected fault in the grain walk")

        monkeypatch.setattr("repro.olap.grains.scan_chunk_range", faulty_walk)
        failures = endpoint.router.counters.get("rollup.refresh_failures")
        endpoint.router.reclaim_grains(0)
        status, payload = http_get(srv.url + "/cube/sales/aggregate?drilldown=dim1")
        assert status == 200
        assert payload["route"]["source"] == "base"
        assert payload["route"]["rollup"] == "coarse"  # named on a fallback too
        expected = _base_cells(service, endpoint, {"drilldown": "dim1"})
        assert payload_cells(payload) == expected
        assert endpoint.counters.get("api.stale_fallbacks") == 1
        _wait_for_counter(
            endpoint.router.counters, "rollup.refresh_failures", failures + 1
        )

    def test_a_failed_build_under_explain_carries_the_base_plan(
        self, server, monkeypatch
    ):
        # the EXPLAIN branch used to build outside the fallback: the
        # plain request answered 200 from base, this one 503
        _, service, endpoint, srv = server

        def faulty_walk(*args, **kwargs):
            raise TransientDiskError("injected fault in the grain walk")

        monkeypatch.setattr("repro.olap.grains.scan_chunk_range", faulty_walk)
        failures = endpoint.router.counters.get("rollup.refresh_failures")
        endpoint.router.reclaim_grains(0)
        for suffix in ("&explain=1", "&explain=1&analyze=1"):
            status, payload = http_get(
                srv.url + "/cube/sales/aggregate?drilldown=dim1" + suffix
            )
            assert status == 200
            assert payload["route"]["source"] == "base"
            assert payload_cells(payload) == _base_cells(
                service, endpoint, {"drilldown": "dim1"}
            )
            validate(payload["explain"], PLAN_SCHEMA)
            assert payload["explain"]["backend"] != "rollup"
        assert endpoint.counters.get("api.stale_fallbacks") == 2
        assert (
            endpoint.router.counters.get("rollup.refresh_failures")
            == failures + 2
        )

    def test_a_degraded_cube_still_serves_a_cached_base_answer(
        self, server, monkeypatch
    ):
        # a routed miss on a degraded cube used to fall back to a base
        # answer cached beside it; it is a service miss now, refused
        # like any other, while what the cache holds is still served
        _, service, endpoint, srv = server
        base = srv.url + "/cube/sales/aggregate?drilldown=dim2:d2"
        status, cached = http_get(base)
        assert status == 200 and cached["route"]["source"] == "base"
        failures = endpoint.router.counters.get("rollup.refresh_failures")
        endpoint.router.reclaim_grains(0)
        degrade(service, monkeypatch)
        status, payload = http_get(base)
        assert status == 200
        assert payload["route"] == cached["route"]
        assert payload["cells"] == cached["cells"]
        # a miss on a degraded cube is refused, as ever: routed or base
        for drilldown in ("dim1", "dim0:d0"):
            status, payload = http_get(
                srv.url + "/cube/sales/aggregate?drilldown=" + drilldown
            )
            assert status == 503
            assert payload["error"]["kind"] == "degraded"
        # refused before any build was tried
        assert endpoint.router.counters.get("rollup.refresh_failures") == failures
