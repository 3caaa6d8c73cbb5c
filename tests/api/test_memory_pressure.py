"""Eviction-under-writes hammer: concurrent aggregate traffic racing
cell writes under a deliberately tight memory budget.  Pressure-driven
eviction may cost latency, never correctness — every response stays
below 500, post-quiesce answers are oracle-equal to base consolidation,
and the accountant's ledger stays internally consistent at every
sample."""

import threading

from repro.api.server import ApiEndpoint
from repro.data import generate_fact_rows
from repro.olap import ConsolidationQuery, ExecutionOptions
from repro.serve import QueryService, ServiceConfig

from .conftest import CONFIG, fresh_engine, fresh_model

#: below the stack's resident set at test scale (47 KB of it the
#: unreclaimable buffer pool alone), so every sample lands over budget
#: and the reclaim path runs constantly — grains are evicted and
#: rebuilt throughout
BUDGET_BYTES = 40_000

TEMPLATES = [
    {"drilldown": "dim0:h02,dim1:h12,dim2:h22"},  # coarse rollup grain
    {"drilldown": "dim0:h01,dim1:h11"},  # mid01 rollup grain
    {"drilldown": "dim0:h02"},  # re-aggregated from coarse
    {"drilldown": "dim1:h12", "aggregate": "max"},
    {"drilldown": "dim0", "cut": "dim1.h11:AA0;AA1"},  # base path
]


def _rows_from_payload(payload):
    labels = [
        f"{dim}.{attr}" for dim, attr in payload["drilldown"]
    ] + payload["measures"]
    return sorted(
        tuple(cell[label] for label in labels) for cell in payload["cells"]
    )


def _oracle_rows(service, payload):
    query = ConsolidationQuery.build(
        CONFIG.name,
        group_by={dim: attr for dim, attr in payload["drilldown"]},
        selections=[],
        aggregate=payload["aggregate"],
    )
    # pinned: auto would answer from the grain whose answer is checked
    return sorted(service.execute(query, ExecutionOptions("array")).rows)


class TestEvictionUnderWrites:
    def test_hammer_holds_correctness_and_ledger(self):
        engine = fresh_engine()
        service = QueryService(
            engine, ServiceConfig(memory_budget_bytes=BUDGET_BYTES)
        )
        endpoint = ApiEndpoint(engine, service, fresh_model())
        try:
            self._hammer(service, endpoint)
        finally:
            endpoint.close()
            service.close()

    def _hammer(self, service, endpoint):
        write_keys = [tuple(row[:3]) for row in generate_fact_rows(CONFIG)[:24]]
        stop_writes = threading.Event()
        statuses: list[int] = []
        ledger_drift: list[tuple] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def writer():
            beat = 0
            while not stop_writes.is_set():
                keys = write_keys[beat % len(write_keys)]
                try:
                    service.write_cell(CONFIG.name, keys, (beat % 7,))
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                beat += 1
                stop_writes.wait(0.002)

        def reader(worker: int):
            for round_no in range(30):
                params = TEMPLATES[(worker + round_no) % len(TEMPLATES)]
                try:
                    status, _ = endpoint.aggregate(
                        "sales", lambda parser: parser.from_params(params)
                    )
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                snap = service.memory.sample("hammer")
                with lock:
                    statuses.append(status)
                    if snap["total_resident_bytes"] != sum(
                        snap["stores"].values()
                    ):
                        ledger_drift.append(
                            (snap["total_resident_bytes"], snap["stores"])
                        )

        write_thread = threading.Thread(target=writer, name="hammer-writer")
        read_threads = [
            threading.Thread(target=reader, args=(i,), name=f"hammer-r{i}")
            for i in range(4)
        ]
        write_thread.start()
        for thread in read_threads:
            thread.start()
        for thread in read_threads:
            thread.join(timeout=120)
        stop_writes.set()
        write_thread.join(timeout=30)

        assert not errors, f"hammer surfaced exceptions: {errors[:3]}"
        assert len(statuses) == 4 * 30
        assert all(status < 500 for status in statuses), (
            f"5xx under pressure: {sorted(set(statuses))}"
        )
        assert not ledger_drift, (
            f"accountant total drifted from store callbacks: "
            f"{ledger_drift[:2]}"
        )

        counters = service.memory.counters.snapshot()
        assert counters.get("memory.pressure_events", 0) >= 1
        assert counters.get("memory.reclaimed_bytes", 0) >= 0

        # quiesced: every template must now answer oracle-equal to base
        # consolidation, evicted grains/caches notwithstanding
        for params in TEMPLATES:
            if "cut" in params:  # cut answers need cut-aware oracles
                continue
            status, payload = endpoint.aggregate(
                "sales", lambda parser: parser.from_params(params)
            )
            assert status == 200
            assert _rows_from_payload(payload) == _oracle_rows(
                service, payload
            )

        # eviction races must not corrupt per-store ledgers: each
        # store's resident figure re-derives from its own entry sizes
        grains = service.engine.grains
        for store in (
            service.results,
            service.chunks,
            service.plans,
            service.traces,
            grains,
        ):
            with store._lock:
                assert store._resident_bytes == sum(store._sizes.values())
                assert store._resident_bytes >= 0
        # a grain's bytes are its columns': the store's figure is their
        # sum, whatever eviction and rebuild raced
        router = endpoint.router
        with grains._lock:
            assert grains.resident_bytes() == sum(
                grain.counts.nbytes
                + sum(column.nbytes for column in grain.columns.values())
                for grain in grains.values()
            )
        # the pressure came from eviction-then-rebuild: grains were
        # evicted, and rebuilt beyond the two builds at start
        assert router.counters.get("rollup.evictions") >= 1
        assert router.counters.get("rollup.rebuilds") > 2

    def test_budget_floor_never_blocks_unreclaimable_stores(self):
        """A budget below even the fixed footprint (buffer pool, rings)
        must degrade to constant pressure, not failure."""
        engine = fresh_engine()
        service = QueryService(
            engine, ServiceConfig(memory_budget_bytes=1)
        )
        endpoint = ApiEndpoint(engine, service, fresh_model())
        try:
            for params in TEMPLATES[:3]:
                status, payload = endpoint.aggregate(
                    "sales", lambda parser: parser.from_params(params)
                )
                assert status == 200
                assert payload["cell_count"] > 0
            snap = service.memory.sample("floor")
            assert snap["total_resident_bytes"] > 0  # fixed stores remain
            counters = service.memory.counters.snapshot()
            assert counters.get("memory.pressure_events", 0) >= 1
        finally:
            endpoint.close()
            service.close()


#: three distinct queries, so the burst's hits leave three result-cache
#: entries and its EXPLAIN ANALYZEs three plans
BURST_QUERIES = [
    ConsolidationQuery.build(CONFIG.name, group_by={"dim0": "h01"}),
    ConsolidationQuery.build(
        CONFIG.name, group_by={"dim1": "h11", "dim2": "h21"}
    ),
    ConsolidationQuery.build(
        CONFIG.name, group_by={"dim0": "d0"}, aggregate="max"
    ),
]


def _burst(budget_bytes):
    """200 traced queries (all but the first three are result-cache hits)
    and 50 EXPLAIN ANALYZEs on a service with no sampler.  Returns the
    total resident bytes after each request, read without enforcing;
    the largest unreclaimable floor (the buffer pool); and
    the pressure-event count."""
    engine = fresh_engine()
    totals, floor = [], 0
    with QueryService(
        engine, ServiceConfig(memory_budget_bytes=budget_bytes)
    ) as service:
        for beat in range(250):
            query = BURST_QUERIES[beat % len(BURST_QUERIES)]
            if beat % 5 == 4:
                service.explain(query, analyze=True)
            else:
                service.execute(query)
            usage = service.memory.usage_by_store()
            totals.append(sum(usage.values()))
            floor = max(floor, usage["buffer_pool"])
        events = service.memory.counters.get("memory.pressure_events")
    return totals, floor, events


class TestBudgetCheckedWhereStoresGrow:
    def test_burst_never_leaves_total_over_a_reachable_budget(self):
        """The trace store and plan cache grow on every request; with no
        background tick, their own growth must enforce the budget."""
        unbudgeted, floor, events = _burst(0)
        assert events == 0
        budget = (floor + max(unbudgeted)) // 2
        assert floor < budget < max(unbudgeted)
        budgeted, _, events = _burst(budget)
        over = [total for total in budgeted if total > budget]
        assert over == [], f"{len(over)} of {len(budgeted)} over {budget}"
        assert events >= 1
