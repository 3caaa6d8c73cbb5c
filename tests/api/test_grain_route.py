"""The ``rollup`` route is an engine route: a declared grain answers every
caller that asks ``auto`` — ``engine.query``, ``QueryService``, SQL and
HTTP — with ``starjoin``'s rows; a routed request is a service query
(admitted, cached with its ``route``, refused on a degraded cube when it
misses); and an endpoint's close leaves nothing registered that reads it
or another endpoint's grains."""

import gc
import json
import urllib.error
import urllib.request
import weakref

import pytest

from repro.api.server import ApiEndpoint, ApiServer, RequestParser
from repro.olap import ConsolidationQuery, SelectionPredicate

from .conftest import CONFIG, fresh_model

AGGREGATES = ("sum", "count", "min", "max", "avg")

#: requests a declared grain covers: coarse (h02/h12/h22) or mid01
#: (h01/h11), at stored and derived levels, with in-list and range cuts
COVERED = [
    {"drilldown": "dim0"},
    {"drilldown": "dim0:h01,dim1:h11"},
    {"drilldown": "dim1:h12,dim0:h02,dim2"},
    {"drilldown": "dim0:h02", "cut": "dim1.h11:AA0;AA2"},
    {"drilldown": "dim1:h11", "cut": "dim0.h01:AA0..AA1"},
    {"drilldown": "dim0:h01", "cut": "dim1.h12:BB1.."},
    {"drilldown": "dim2:h22", "cut": "dim0.h02:BB0|dim1.h12:BB0;BB1"},
]


def _query(endpoint, params, aggregate):
    request = RequestParser(endpoint.model.cube("sales")).from_params(
        {**params, "aggregate": aggregate}
    )
    return endpoint.base_query(request)


def _sql(query):
    """``query`` as the SQL subset states it."""
    dims = sorted({d for d, _ in query.group_by} | set(query.selected_dims))
    where = [f"fact.d{d[-1]} = {d}.d{d[-1]}" for d in dims]
    for sel in query.selections:
        column = f"{sel.dimension}.{sel.attribute}"
        if sel.is_range:
            low = f"'{sel.low}'" if sel.low is not None else "'AA0'"
            high = f"'{sel.high}'" if sel.high is not None else "'ZZ'"
            where.append(f"{column} between {low} and {high}")
        else:
            values = ", ".join(f"'{v}'" for v in sel.values)
            where.append(f"{column} in ({values})")
    columns = ", ".join(f"{d}.{a}" for d, a in query.group_by)
    return (
        f"select {query.aggregate}(volume), {columns} "
        f"from fact, {', '.join(dims)} where {' and '.join(where)} "
        f"group by {columns}"
    )


def _cells(payload):
    labels = [f"{d}.{a}" for d, a in payload["drilldown"]] + payload["measures"]
    return sorted(tuple(cell[label] for label in labels) for cell in payload["cells"])


class TestRouteParity:
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_every_surface_answers_from_the_grain_as_starjoin(
        self, stack, aggregate
    ):
        engine, service, endpoint = stack
        with ApiServer(endpoint) as srv:
            for params in COVERED:
                query = _query(endpoint, params, aggregate)
                expected = sorted(engine.query(query, backend="starjoin").rows)
                direct = engine.query(query)
                served = service.execute(query)
                via_sql = engine.sql(CONFIG.name, _sql(query))
                url = srv.url + "/cube/sales/aggregate?" + "&".join(
                    f"{key}={value}"
                    for key, value in {**params, "aggregate": aggregate}.items()
                )
                with urllib.request.urlopen(url, timeout=30) as response:
                    payload = json.loads(response.read())
                for result in (direct, served, via_sql):
                    assert result.backend == "rollup", params
                    assert sorted(result.rows) == expected, (params, result)
                assert payload["route"]["source"] == "rollup"
                assert _cells(payload) == expected, params

    def test_a_query_no_grain_covers_keeps_the_base_rule(self, stack):
        engine, _, _ = stack
        query = ConsolidationQuery.build(
            CONFIG.name,
            group_by={"dim0": "h02"},
            selections=[SelectionPredicate.in_list("dim2", "d2", 1, 2)],
        )
        result = engine.query(query)
        assert result.backend != "rollup" and result.route is None
        assert sorted(result.rows) == sorted(
            engine.query(query, backend="starjoin").rows
        )


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestRoutedRequestIsAServiceQuery:
    def test_admitted_then_a_cache_hit_with_the_same_route(self, stack):
        _, service, endpoint = stack
        with ApiServer(endpoint) as srv:
            url = srv.url + "/cube/sales/aggregate?drilldown=dim0:h01"
            admitted = service.counters.get("serve.admitted")
            hits = service.results.counters.get("result_cache.hits")
            status, first = _get(url)
            assert status == 200 and first["route"]["source"] == "rollup"
            assert service.counters.get("serve.admitted") == admitted + 1
            status, again = _get(url)
            assert status == 200
            assert service.counters.get("serve.admitted") == admitted + 2
            assert service.results.counters.get("result_cache.hits") == hits + 1
            assert again["route"] == first["route"]
            assert again["route"]["rows_scanned"] == 9
            assert again["cells"] == first["cells"]

    def test_degraded_serves_a_cached_routed_answer_and_refuses_a_miss(
        self, stack
    ):
        _, service, endpoint = stack
        with ApiServer(endpoint) as srv:
            cached = srv.url + "/cube/sales/aggregate?drilldown=dim0:h01"
            status, first = _get(cached)
            assert status == 200 and first["route"]["source"] == "rollup"
            service._mark_degraded(CONFIG.name)
            status, again = _get(cached)
            assert status == 200
            assert again["route"] == first["route"]
            assert again["cells"] == first["cells"]
            status, missed = _get(srv.url + "/cube/sales/aggregate?drilldown=dim1")
            assert status == 503
            assert missed["error"]["kind"] == "degraded"


class TestEndpointLifecycle:
    def test_closing_one_endpoint_keeps_anothers_grains_on_the_ledger(
        self, engine
    ):
        from repro.serve import QueryService

        with QueryService(engine) as service:
            first = ApiEndpoint(engine, service, fresh_model())
            second = ApiEndpoint(engine, service, fresh_model())
            first.close()
            # the second endpoint's grains are still accounted
            assert "rollup_grains" in service.memory.store_names()
            assert service.memory.usage_by_store()["rollup_grains"] == (
                second.router.resident_bytes()
            ) > 0
            second.close()

    def test_closing_one_service_keeps_anothers_budget_check_on_the_grains(
        self, engine
    ):
        from repro.serve import QueryService

        with QueryService(engine) as first:
            with QueryService(engine) as second:
                first.close()
                hook = engine.grains.pressure_hook
                assert hook is not None
                assert "rollup_grains" in second.memory.store_names()

    def test_a_closed_endpoint_leaves_nothing_registered_reading_it(
        self, engine
    ):
        from repro.serve import QueryService

        registry = engine.db.metrics
        with QueryService(engine) as service:
            endpoint = ApiEndpoint(engine, service, fresh_model())
            alive = weakref.ref(endpoint.router)
            endpoint.close()
            del endpoint
            gc.collect()
            assert alive() is None
            assert "api:server" not in registry.source_names()
            assert "api:rollup" not in registry.source_names()
            gauges = registry.gauge_values()
            assert "api.rollups_resident" not in gauges
            # the grain gauges read the engine's one store, which stays
            assert gauges["rollup.resident_rows"] == sum(
                map(len, engine.grains.values())
            ) > 0
