"""The result cache, the trace store and the plan cache charge an entry
from its shape; each charge stays within 0.5–2x of a full object walk.

The reference is the test-side :func:`tests.deep_sizeof.deep_sizeof`.
The corpus: the answers of the three engine backends with 1–4 group-by
dimensions and all seven aggregates, over ``int64`` measures past 2**53
and over ``float64``; the empty answer and a one-row answer; the span
trees of a traced service miss and of an API request; an analyzed
EXPLAIN plan.  A result is charged from ``len(rows)`` and at most one
row, whatever its size; an attrs merge into a trace charges only what
it adds or replaces.
"""

import contextlib
import dataclasses
import itertools
import json
import random
import urllib.request

import pytest

from repro.api.server import ApiEndpoint, ApiServer
from repro.obs.tracing import TraceStore, new_trace_context, trace_context
from repro.olap import (
    ConsolidationQuery,
    OlapEngine,
    SelectionPredicate,
)
from repro.olap.engine import QueryResult
from repro.olap.model import CubeSchema, DimensionDef, MeasureDef
from repro.serve import QueryService, ResultCache, ServiceConfig
from repro.serve.fingerprint import query_fingerprint
from repro.serve.result_cache import CacheEntry
from tests.api.conftest import CONFIG, fresh_engine, fresh_model
from tests.deep_sizeof import deep_sizeof

LOW, HIGH = 0.5, 2.0
N_DIMS = 4
BACKENDS = {"array", "starjoin", "bitmap"}
AGGREGATES = ("sum", "count", "avg", "min", "max", "var", "stddev")


def within_bounds(charged: int, walked: int) -> bool:
    return LOW * walked <= charged <= HIGH * walked


def cube_engine(dtype: str) -> OlapEngine:
    """A 4-D cube of 6 keys a dimension, 3 labels each, about a third of
    its cells valid, loaded into every design."""
    rnd = random.Random(3)
    schema = CubeSchema(
        "c",
        tuple(
            DimensionDef(f"dim{d}", key=f"d{d}", levels=((f"h{d}", "str:4"),))
            for d in range(N_DIMS)
        ),
        (MeasureDef("m", dtype),),
    )
    dimension_rows = {
        f"dim{d}": [(key, f"L{key % 3}") for key in range(6)]
        for d in range(N_DIMS)
    }
    facts = [
        cell + (
            2**53 + rnd.randrange(1000)
            if dtype == "int64"
            else rnd.uniform(-1e6, 1e6),
        )
        for cell in itertools.product(range(6), repeat=N_DIMS)
        if rnd.random() < 0.3
    ]
    engine = OlapEngine(page_size=512, pool_bytes=1 << 20)
    engine.load_cube(
        schema, dimension_rows, facts,
        chunk_shape=(3,) * N_DIMS,
    )
    assert engine.cube("c").available_backends() == BACKENDS
    return engine


def query(n_group: int, aggregate: str, *labels: str) -> ConsolidationQuery:
    return ConsolidationQuery.build(
        "c",
        {f"dim{d}": f"h{d}" for d in range(n_group)},
        [SelectionPredicate.in_list("dim0", "h0", *labels)],
        aggregate=aggregate,
    )


def cached_charge(q: ConsolidationQuery, result) -> tuple[int, int]:
    """What the result cache charges ``result``, and the walk of what it
    holds for it: the answer, without the plan that found it, as the
    service caches a miss."""
    result = dataclasses.replace(result, plan=None)
    cache = ResultCache()
    fingerprint = query_fingerprint(q, result.backend)
    cache.put(q.cube, fingerprint, 3, result)
    walked = deep_sizeof(((q.cube, fingerprint), CacheEntry(3, result)))
    return cache.resident_bytes(), walked


@pytest.mark.parametrize("dtype", ["int64", "float64"])
def test_result_charges_track_the_walk(dtype):
    engine = cube_engine(dtype)
    outside = []
    for backend in sorted(BACKENDS):
        for n_group, aggregate in itertools.product(
            range(1, N_DIMS + 1), AGGREGATES
        ):
            q = query(n_group, aggregate, "L0", "L1")
            result = engine.query(q, backend=backend, cold=False)
            assert result.rows
            charged, walked = cached_charge(q, result)
            if not within_bounds(charged, walked):
                outside.append((backend, n_group, aggregate, charged, walked))
    assert outside == []


def test_empty_and_one_row_results_track_the_walk():
    engine = cube_engine("int64")
    for backend in sorted(BACKENDS):
        for labels, n_rows in ((("L9",), 0), (("L0",), 1)):
            q = query(1, "sum", *labels)
            result = engine.query(q, backend=backend, cold=False)
            assert len(result.rows) == n_rows
            charged, walked = cached_charge(q, result)
            assert within_bounds(charged, walked), (backend, n_rows)


@pytest.fixture
def stack():
    engine = fresh_engine()
    service = QueryService(engine, ServiceConfig(max_workers=1))
    endpoint = ApiEndpoint(engine, service, fresh_model())
    with contextlib.closing(service), contextlib.closing(endpoint):
        yield service, endpoint


def record_charge(traces: TraceStore, trace_id: str) -> tuple[int, int]:
    """What the trace store charges one record, and the walk of it."""
    (entry,) = [
        entry for entry in traces.top_entries(traces.capacity)
        if entry["key"] == trace_id
    ]
    return entry["bytes"], deep_sizeof((trace_id, traces.get(trace_id)))


def test_a_traced_service_miss_tracks_the_walk(stack):
    service, _ = stack
    q = ConsolidationQuery.build(
        CONFIG.name, group_by={"dim0": "h01", "dim1": "h11", "dim2": "d2"}
    )
    ctx = new_trace_context()
    with trace_context(ctx):
        service.execute(q)
    record = service.traces.get(ctx.trace_id)
    assert record.span_count() > 3
    charged, walked = record_charge(service.traces, ctx.trace_id)
    assert within_bounds(charged, walked), (charged, walked)


@pytest.mark.parametrize(
    "path",
    [
        "/cube/sales/aggregate?drilldown=dim0:h02",  # routed to a grain
        "/cube/sales/aggregate?drilldown=dim0&cut=dim1.h11:AA0",  # base
    ],
)
def test_an_api_request_tracks_the_walk(stack, path):
    service, endpoint = stack
    with ApiServer(endpoint) as server:
        with urllib.request.urlopen(server.url + path, timeout=10) as response:
            trace_id = json.loads(response.read())["trace_id"]
    assert service.traces.get(trace_id).roots
    charged, walked = record_charge(service.traces, trace_id)
    assert within_bounds(charged, walked), (charged, walked)


def test_an_analyzed_plan_tracks_the_walk(stack):
    service, _ = stack
    q = ConsolidationQuery.build(
        CONFIG.name, group_by={"dim0": "h01", "dim1": "h11"}
    )
    payload = service.explain(q, analyze=True).to_dict()
    assert payload["analyzed"] and payload["plan"]["children"]
    # a trace record that carries only the plan, as a slow miss's does
    traces = TraceStore()
    ctx = new_trace_context()
    traces.record(ctx, name="query", plans=[payload])
    charged, walked = record_charge(traces, ctx.trace_id)
    assert within_bounds(charged, walked), (charged, walked)


class CountingRows(list):
    """A list that counts how many of its elements are read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = 0

    def __getitem__(self, index):
        picked = super().__getitem__(index)
        self.reads += len(picked) if isinstance(index, slice) else 1
        return picked

    def __iter__(self):
        for row in super().__iter__():
            self.reads += 1
            yield row

    def __reversed__(self):
        self.reads += len(self)
        return super().__reversed__()


def test_a_10000_row_result_is_charged_from_one_row():
    rows = CountingRows(
        (f"a{i % 10}", f"b{i % 100}", f"c{i % 10}", float(i))
        for i in range(10_000)
    )
    rows.reads = 0
    result = QueryResult(rows, "array", 0.012, 0.0, {"cells_scanned": 1.0})
    cache = ResultCache()
    cache.put("cube", "f" * 32, 0, result)
    assert rows.reads <= 1
    assert cache.resident_bytes() > 10_000 * 24  # one float a row, at least


class TestAttrsMerge:
    def charged(self, *merges: dict) -> int:
        store = TraceStore()
        ctx = new_trace_context()
        for attrs in merges:
            store.record(ctx, attrs=attrs)
        return store.resident_bytes()

    def test_each_key_is_charged_once(self):
        a, b, c = "a" * 100, "b" * 200, "c" * 300
        assert self.charged({"a": a, "b": b}, {"b": b, "c": c}) == self.charged(
            {"a": a, "b": b, "c": c}
        )

    def test_a_replaced_value_is_charged_its_difference(self):
        small, large = "x", "y" * 4096
        assert self.charged({"k": small}, {"k": large}) == self.charged(
            {"k": large}
        )
        assert self.charged({"k": large}, {"k": small}) == self.charged(
            {"k": small}
        )
