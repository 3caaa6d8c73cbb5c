"""The distributed-trace layer: context identity, propagation, store.

The in-process :class:`Tracer` is covered by ``test_tracer.py``; this
file covers the cross-domain layer added on top — :class:`TraceContext`
minting/adoption, the thread-local ``trace_context`` installation and
its per-block link buffer, and the :class:`TraceStore` flight-recorder
contract (keep rule, merge-by-trace_id, bounded ring).
"""

import re
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.tracing import (
    TraceContext,
    TraceStore,
    add_trace_link,
    adopt_trace_id,
    current_trace_context,
    current_trace_links,
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
        assert ctx.sampled
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
        assert child.sampled == root.sampled
        assert child.origin == "api"

    def test_dict_round_trip(self):
        ctx = new_trace_context(origin="service").child()
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_adopt_normalizes_well_formed_ids(self):
        inbound = "AB" * 16
        ctx = adopt_trace_id(inbound, origin="api")
        assert ctx is not None
        assert ctx.trace_id == inbound.lower()
        assert ctx.sampled  # explicit ids are always kept

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

    def test_links_are_per_block(self):
        with trace_context(new_trace_context()):
            add_trace_link("schedules", "ab" * 16, detail="outer")
            with trace_context(new_trace_context()):
                assert current_trace_links() == []
                add_trace_link("follows_from", "cd" * 16)
                assert len(current_trace_links()) == 1
            assert [link["detail"] for link in current_trace_links()] == [
                "outer"
            ]

    def test_links_noop_outside_any_context(self):
        add_trace_link("schedules", "ab" * 16)
        assert current_trace_links() == []

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


class TestTraceStoreSampling:
    def test_sampled_out_trace_not_stored(self):
        store = TraceStore(slow_threshold_s=10.0)
        ctx = new_trace_context(sampled=False)
        assert not store.record(ctx, name="q", latency_s=0.001)
        assert store.get(ctx.trace_id) is None
        assert len(store) == 0

    def test_slow_trace_kept_despite_sampling(self):
        store = TraceStore(slow_threshold_s=0.25)
        ctx = new_trace_context(sampled=False)
        assert store.record(ctx, name="q", latency_s=0.3)
        assert store.get(ctx.trace_id) is not None

    def test_error_trace_kept_despite_sampling(self):
        store = TraceStore(slow_threshold_s=10.0)
        ctx = new_trace_context(sampled=False)
        assert store.record(ctx, name="q", status="QueryError")
        assert store.get(ctx.trace_id).status == "QueryError"

    def test_force_keeps_fast_ok_unsampled(self):
        store = TraceStore(slow_threshold_s=10.0)
        ctx = new_trace_context(sampled=False)
        assert store.record(ctx, name="q", force=True)
        assert store.get(ctx.trace_id) is not None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)


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

    def test_links_deduplicate(self):
        store = TraceStore()
        ctx = new_trace_context()
        link = {"kind": "schedules", "trace_id": "ab" * 16, "detail": "d"}
        store.record(ctx, links=[link, dict(link)])
        store.record(ctx, links=[dict(link)])
        assert store.get(ctx.trace_id).links == [link]

    def test_retro_link_onto_resident_trace(self):
        store = TraceStore()
        ctx = new_trace_context()
        store.record(ctx)
        link = {"kind": "schedules", "trace_id": "cd" * 16, "detail": ""}
        assert store.link(ctx.trace_id, link)
        assert store.get(ctx.trace_id).links == [link]

    def test_link_onto_absent_trace_is_refused(self):
        assert not TraceStore().link("ab" * 16, {"kind": "x", "trace_id": "y"})


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
            links=[{"kind": "schedules", "trace_id": "ab" * 16}],
        )
        payload = store.get(ctx.trace_id).to_dict()
        assert payload["trace_id"] == ctx.trace_id
        assert payload["spans"] == 2
        summary = store.index()[0]
        assert summary["spans"] == 2 and summary["links"] == 1

    def test_concurrent_recording_is_bounded_and_clean(self):
        store = TraceStore(capacity=16)

        def hammer(_):
            for _ in range(50):
                store.record(new_trace_context(), name="q")

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(hammer, range(4)))
        assert len(store) <= 16
        snapshot = store.counters.snapshot()
        assert snapshot["traces.stored"] == 200
