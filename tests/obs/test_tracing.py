"""The distributed-trace layer: context identity, propagation, store.

The in-process :class:`Tracer` is covered by ``test_tracer.py``; this
file covers the cross-domain layer added on top — :class:`TraceContext`
minting/adoption, the thread-local ``trace_context`` installation, and
the :class:`TraceStore` flight-recorder
contract (merge-by-trace_id, bounded ring, and the eviction rule that
keeps slow and errored traces past fast ones).
"""

import re
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.tracing import (
    TraceContext,
    TraceStore,
    adopt_trace_id,
    current_trace_context,
    new_trace_context,
    trace_context,
)

HEX32 = re.compile(r"^[0-9a-f]{32}$")
HEX16 = re.compile(r"^[0-9a-f]{16}$")


class TestTraceContext:
    def test_mint_shapes_ids(self):
        ctx = new_trace_context(origin="test")
        assert HEX32.match(ctx.trace_id)
        assert HEX16.match(ctx.span_id)
        assert ctx.parent_span_id is None
        assert ctx.origin == "test"

    def test_mints_are_unique(self):
        ids = {new_trace_context().trace_id for _ in range(64)}
        assert len(ids) == 64

    def test_child_keeps_trace_changes_span(self):
        root = new_trace_context(origin="api")
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.span_id != root.span_id
        assert child.parent_span_id == root.span_id
        assert child.origin == "api"

    def test_dict_round_trip(self):
        ctx = new_trace_context(origin="service").child()
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_adopt_normalizes_well_formed_ids(self):
        inbound = "AB" * 16
        ctx = adopt_trace_id(inbound, origin="api")
        assert ctx is not None
        assert ctx.trace_id == inbound.lower()

    @pytest.mark.parametrize(
        "bad",
        [None, "", "zz" * 16, "ab" * 8, "ab" * 17, "../../etc/passwd"],
    )
    def test_adopt_rejects_malformed_ids(self, bad):
        assert adopt_trace_id(bad) is None


class TestThreadLocalPropagation:
    def test_install_and_restore(self):
        assert current_trace_context() is None
        ctx = new_trace_context()
        with trace_context(ctx):
            assert current_trace_context() is ctx
        assert current_trace_context() is None

    def test_nested_blocks_restore_outer(self):
        outer, inner = new_trace_context(), new_trace_context()
        with trace_context(outer):
            with trace_context(inner):
                assert current_trace_context() is inner
            assert current_trace_context() is outer

    def test_context_does_not_leak_across_threads(self):
        ctx = new_trace_context()
        seen = {}
        with trace_context(ctx):
            thread = threading.Thread(
                target=lambda: seen.update(other=current_trace_context())
            )
            thread.start()
            thread.join()
        assert seen["other"] is None

    def test_explicit_capture_survives_pool_hop(self):
        # the serving pattern: capture on the submitting thread, install
        # inside the worker
        ctx = new_trace_context()
        with ThreadPoolExecutor(max_workers=1) as pool:
            def work(captured):
                with trace_context(captured):
                    return current_trace_context().trace_id

            assert pool.submit(work, ctx).result() == ctx.trace_id


class TestTraceStoreEviction:
    """Every trace is stored; slow and errored ones leave last."""

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)

    @pytest.mark.parametrize(
        "outcome",
        [{"latency_s": 0.3}, {"status": "QueryError"}],
        ids=["slow", "errored"],
    )
    def test_a_kept_trace_outlives_capacity_fast_ones(self, outcome):
        store = TraceStore(capacity=4, slow_threshold_s=0.25)
        kept = new_trace_context()
        store.record(kept, name="kept", **outcome)
        for _ in range(store.capacity):
            store.record(new_trace_context(), latency_s=0.001)
        assert store.get(kept.trace_id) is not None
        assert len(store) == store.capacity
        assert store.counters.get("traces.evicted") == 1

    def test_a_fast_trace_goes_before_an_older_kept_one(self):
        store = TraceStore(capacity=2, slow_threshold_s=0.25)
        slow, fast, newest = (new_trace_context() for _ in range(3))
        store.record(slow, latency_s=0.3)
        store.record(fast, latency_s=0.001)
        store.record(newest)
        assert store.keys() == [slow.trace_id, newest.trace_id]

    def test_a_ring_of_kept_traces_evicts_its_oldest(self):
        store = TraceStore(capacity=2, slow_threshold_s=0.25)
        contexts = [new_trace_context() for _ in range(3)]
        for ctx in contexts:
            store.record(ctx, status="QueryError")
        assert store.keys() == [ctx.trace_id for ctx in contexts[1:]]
        # the trace being inserted is never its own victim, fast or not
        fast = new_trace_context()
        store.record(fast)
        assert store.keys() == [contexts[2].trace_id, fast.trace_id]

    def test_reclaim_follows_the_same_order(self):
        store = TraceStore(capacity=8, slow_threshold_s=0.25)
        slow, older, newer = (new_trace_context() for _ in range(3))
        store.record(slow, latency_s=0.3)
        store.record(older)
        store.record(newer)
        gone = []
        while len(store):
            before = store.keys()
            store.reclaim(store.resident_bytes() - 1)
            gone += [key for key in before if key not in store.keys()]
        assert gone == [older.trace_id, newer.trace_id, slow.trace_id]


class TestTraceStoreMerge:
    def test_contributions_merge_into_one_record(self):
        # the API handler and the query service both record the same
        # trace_id; the store must present one merged record
        store = TraceStore()
        ctx = new_trace_context(origin="api")
        store.record(
            ctx, name="GET /cube", latency_s=0.01,
            roots=[{"name": "api.request", "children": []}],
            attrs={"path": "/cube"},
        )
        store.record(
            ctx, name="query:c", origin="service", latency_s=0.008,
            roots=[{"name": "serve_query", "children": []}],
            attrs={"fingerprint": "abc"},
        )
        record = store.get(ctx.trace_id)
        assert record.name == "GET /cube"  # first writer names the trace
        assert record.origin == "api"
        assert [r["name"] for r in record.roots] == [
            "api.request", "serve_query",
        ]
        assert record.attrs == {"path": "/cube", "fingerprint": "abc"}
        assert record.latency_s == 0.01  # max of the contributions
        assert store.counters.snapshot()["traces.merged"] == 1

    def test_error_status_wins_over_ok(self):
        store = TraceStore()
        ctx = new_trace_context()
        store.record(ctx, status="QueryError")
        store.record(ctx, status="ok")
        assert store.get(ctx.trace_id).status == "QueryError"



class TestTraceStoreRing:
    def test_eviction_drops_oldest(self):
        store = TraceStore(capacity=3)
        contexts = [new_trace_context() for _ in range(5)]
        for ctx in contexts:
            store.record(ctx)
        assert len(store) == 3
        assert store.get(contexts[0].trace_id) is None
        assert store.get(contexts[-1].trace_id) is not None
        assert store.counters.snapshot()["traces.evicted"] == 2

    def test_merge_refreshes_recency(self):
        store = TraceStore(capacity=2)
        first, second, third = (new_trace_context() for _ in range(3))
        store.record(first)
        store.record(second)
        store.record(first)  # merge: first becomes most recent
        store.record(third)  # evicts second, not first
        assert store.get(first.trace_id) is not None
        assert store.get(second.trace_id) is None

    def test_index_newest_first(self):
        store = TraceStore()
        contexts = [new_trace_context() for _ in range(4)]
        for i, ctx in enumerate(contexts):
            store.record(ctx, name=f"q{i}")
        index = store.index(limit=2)
        assert [s["name"] for s in index] == ["q3", "q2"]

    def test_record_payload_shape(self):
        store = TraceStore()
        ctx = new_trace_context(origin="api")
        store.record(
            ctx, name="q", latency_s=0.01,
            roots=[{"name": "a", "children": [{"name": "b", "children": []}]}],
        )
        payload = store.get(ctx.trace_id).to_dict()
        assert payload["trace_id"] == ctx.trace_id
        assert payload["spans"] == 2
        summary = store.index()[0]
        assert summary["spans"] == 2

    def test_concurrent_recording_is_bounded_and_clean(self):
        store = TraceStore(capacity=16)

        def hammer(worker):
            for i in range(50):
                # every fifth trace slow, so victims are looked for
                # past kept ones while other writers insert
                slow = (worker + i) % 5 == 0
                store.record(new_trace_context(), latency_s=0.3 * slow)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(hammer, range(4)))
        assert len(store) <= 16
        snapshot = store.counters.snapshot()
        assert snapshot["traces.stored"] == 200
        with store._lock:
            assert store._resident_bytes == sum(store._sizes.values())
