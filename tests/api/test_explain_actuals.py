"""EXPLAIN ANALYZE actuals are differences of counters that only count up.

A span's actuals used to be taken across whatever zeroed the registry
underneath it: a routed request whose grain was rebuilt inside the
``rollup.route`` span (as a stale grain's still is) reported
``pool_hits: -977``.  Nothing resets any
more — the array keys included, now that a scan bills its reads straight
to the query's bag instead of handing them over — so no actual can be
negative: alone, after other requests, or beside concurrent readers and
writes.
"""

import threading
import time

from repro.api.server import ApiServer
from repro.data import generate_fact_rows

from .conftest import CONFIG, http_get

ROUTED = "/cube/sales/aggregate?drilldown=dim0:h02&explain=1&analyze=1"
BASE = "/cube/sales/aggregate?drilldown=dim2:d2"
BASE_ANALYZED = BASE + "&explain=1&analyze=1"


def _negative_actuals(explain: dict) -> dict[str, float]:
    """Every negative actual or total in an analyzed plan payload."""
    measured = [("totals", explain["execution"]["totals"])]
    nodes = [explain["plan"]]
    while nodes:
        node = nodes.pop()
        measured.append((node["op"], node.get("actuals", {})))
        nodes.extend(node.get("children", ()))
    return {
        f"{where}.{name}": value
        for where, counters in measured
        for name, value in counters.items()
        if value < 0
    }


class TestSingleThreaded:
    def test_first_request_on_a_fresh_stack(self, stack):
        _, _, endpoint = stack
        with ApiServer(endpoint) as srv:
            status, payload = http_get(srv.url + ROUTED)
        assert status == 200
        plan = payload["explain"]
        assert plan["backend"] == "rollup" and plan["analyzed"]
        assert _negative_actuals(plan) == {}
        # the grain was built at start, not inside the span: a first
        # routed request scans grain rows and not one base cell
        route = plan["plan"]["actuals"]
        assert route.get("rollup.rebuilds", 0) == 0
        assert route.get("cells_scanned", 0) == 0
        assert route.get("chunks_read", 0) == 0
        scan = plan["plan"]["children"][0]
        assert (
            scan["actuals"]["rollup.rows_scanned"]
            == scan["estimates"]["rollup.rows_scanned"]
            > 0
        )

    def test_after_one_base_request(self, stack):
        _, _, endpoint = stack
        with ApiServer(endpoint) as srv:
            assert http_get(srv.url + BASE)[0] == 200
            status, payload = http_get(srv.url + ROUTED)
        assert status == 200
        plan = payload["explain"]
        assert plan["backend"] == "rollup"
        assert _negative_actuals(plan) == {}
        # the base request's scan ended before the span opened
        assert plan["plan"]["actuals"].get("cells_scanned", 0) == 0
        scan = plan["plan"]["children"][0]
        assert (
            scan["actuals"]["rollup.rows_scanned"]
            == scan["estimates"]["rollup.rows_scanned"]
            > 0
        )


class TestBesideReadersAndWrites:
    def test_actuals_never_negative(self, stack):
        _, service, endpoint = stack
        write_keys = [tuple(row[:3]) for row in generate_fact_rows(CONFIG)[:24]]
        stop = threading.Event()
        problems: list = []
        statuses: list[int] = []
        plans: list[dict] = []
        lock = threading.Lock()

        def writer():
            beat = 0
            while not stop.is_set():
                try:
                    service.write_cell(
                        CONFIG.name, write_keys[beat % 24], (beat % 7,)
                    )
                except Exception as exc:  # noqa: BLE001 — reported below
                    problems.append(exc)
                    return
                beat += 1
                stop.wait(0.002)

        def reader(index, url):
            turn = 0
            while not stop.is_set():
                path = ROUTED if (index + turn) % 2 else BASE_ANALYZED
                status, payload = http_get(url + path)
                with lock:
                    statuses.append(status)
                    if status == 200:
                        plans.append(payload["explain"])
                turn += 1

        with ApiServer(endpoint) as srv:
            threads = [threading.Thread(target=writer)]
            threads += [
                threading.Thread(target=reader, args=(i, srv.url))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            time.sleep(2.0)
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)

        assert problems == []
        assert statuses and all(status < 500 for status in statuses)
        assert endpoint.counters.get("api.responses_5xx") == 0
        assert {plan["backend"] for plan in plans} >= {"rollup"}
        assert len({plan["backend"] for plan in plans}) > 1  # base ran too
        assert any("pool_hits" in plan["execution"]["totals"] for plan in plans)
        negatives = {
            where: value
            for plan in plans
            for where, value in _negative_actuals(plan).items()
        }
        assert negatives == {}
