"""Memory observatory unit tests: ``deep_sizeof`` measurement, the
:class:`MemoryAccountant` ledger, the share-respecting two-pass reclaim
coordinator and the per-store reclaim hooks."""

import numpy as np
import pytest

from repro.obs.memory import MemoryAccountant, SizedStore, deep_sizeof
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import TraceStore, new_trace_context


class TestDeepSizeof:
    def test_scalars_positive(self):
        assert deep_sizeof(1) > 0
        assert deep_sizeof("hello") > 0
        assert deep_sizeof(None) > 0

    def test_containers_descend(self):
        payload = "x" * 4096
        assert deep_sizeof([payload]) > 4096
        assert deep_sizeof({"k": payload}) > 4096
        assert deep_sizeof((payload,)) > 4096

    def test_numpy_charged_buffer_bytes(self):
        array = np.zeros(1024, dtype=np.int64)
        measured = deep_sizeof(array)
        assert measured >= array.nbytes
        # charged directly, not walked element by element
        assert measured < array.nbytes + 1024

    def test_shared_subobject_charged_once(self):
        shared = np.zeros(1024, dtype=np.int64)
        both = deep_sizeof([shared, shared])
        assert both < 2 * shared.nbytes

    def test_cycle_safe(self):
        a: list = []
        a.append(a)
        assert deep_sizeof(a) > 0

    def test_object_dict_descends(self):
        class Holder:
            def __init__(self):
                self.blob = "y" * 8192

        assert deep_sizeof(Holder()) > 8192


class _FakeStore(SizedStore):
    """``nbytes`` in 100-byte entries, recording each reclaim target."""

    def __init__(self, nbytes: int):
        super().__init__(capacity=1_000)
        self.reclaims: list[int] = []
        for key in range(nbytes // 100):
            self.put(key, key, 100)

    def reclaim(self, target_bytes: int) -> int:
        self.reclaims.append(target_bytes)
        return super().reclaim(target_bytes)


def _itemised(**sizes: int) -> SizedStore:
    store = SizedStore(capacity=16)
    for key, nbytes in sizes.items():
        store.put(key, key, nbytes)
    return store


class TestAccountant:
    def test_total_is_sum_of_store_callbacks(self):
        accountant = MemoryAccountant()
        accountant.register_store("a", lambda: 100.0)
        accountant.register_store("b", lambda: 250.0)
        assert accountant.usage_by_store() == {"a": 100, "b": 250}
        assert accountant.total_resident_bytes() == 350.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            MemoryAccountant(budget_bytes=-1)

    def test_register_is_idempotent_and_unregister_forgets(self):
        accountant = MemoryAccountant()
        accountant.register_store("a", lambda: 1.0)
        accountant.register_store("a", lambda: 2.0)
        assert accountant.usage_by_store() == {"a": 2}
        accountant.unregister_store("a")
        accountant.unregister_store("missing")  # ignored
        assert accountant.usage_by_store() == {}

    def test_gauges_exported_through_registry(self):
        registry = MetricsRegistry()
        accountant = MemoryAccountant(registry)
        accountant.register_store("cachey", lambda: 512.0)
        gauges = registry.gauge_values()
        assert gauges["memory.total_resident_bytes"] == 512.0
        assert gauges["memory.cachey.resident_bytes"] == 512.0

    def test_unregister_freezes_gauge_at_zero(self):
        registry = MetricsRegistry()
        accountant = MemoryAccountant(registry)
        accountant.register_store("cachey", lambda: 512.0)
        accountant.unregister_store("cachey")
        gauges = registry.gauge_values()
        assert gauges["memory.cachey.resident_bytes"] == 0.0
        assert gauges["memory.total_resident_bytes"] == 0.0

    def test_close_freezes_everything(self):
        registry = MetricsRegistry()
        accountant = MemoryAccountant(registry)
        accountant.register_store("cachey", lambda: 512.0)
        accountant.close()
        assert accountant.store_names() == []
        assert registry.gauge_values()["memory.total_resident_bytes"] == 0.0

    def test_top_entries_merge_sorted_across_stores(self):
        accountant = MemoryAccountant()
        accountant.register_store("a", _itemised(a1=10))
        accountant.register_store("b", _itemised(b1=30, b2=20))
        merged = accountant.top_entries(2)
        assert [(e["store"], e["key"], e["bytes"]) for e in merged] == [
            ("b", "b1", 30),
            ("b", "b2", 20),
        ]

    def test_payload_shape(self):
        accountant = MemoryAccountant(budget_bytes=1000)
        accountant.register_store("a", lambda: 100.0)
        payload = accountant.payload()
        assert payload["budget_bytes"] == 1000
        assert payload["total_resident_bytes"] == 100
        assert payload["stores"] == {"a": 100}
        assert payload["top_entries"] == []
        assert payload["counters"] == {}


class TestReclaim:
    def test_unbudgeted_never_reclaims(self):
        accountant = MemoryAccountant()
        store = _FakeStore(10_000)
        accountant.register_store("a", store, cost_rank=0)
        assert accountant.maybe_reclaim("test") == 0
        assert store.reclaims == []

    def test_under_budget_is_a_noop(self):
        accountant = MemoryAccountant(budget_bytes=100_000)
        store = _FakeStore(10_000)
        accountant.register_store("a", store, cost_rank=0)
        assert accountant.maybe_reclaim("test") == 0
        assert accountant.counters.get("memory.pressure_events") == 0

    def test_cheapest_store_reclaimed_first(self):
        accountant = MemoryAccountant(budget_bytes=1_500)
        cheap, pricey = _FakeStore(1_000), _FakeStore(1_000)
        accountant.register_store("pricey", pricey, cost_rank=5)
        accountant.register_store("cheap", cheap, cost_rank=0)
        freed = accountant.maybe_reclaim("test")
        assert freed == 500
        assert cheap.resident_bytes() == 500  # overshoot came out of rank 0
        assert pricey.resident_bytes() == 1_000
        assert pricey.reclaims == []

    def test_pass_one_respects_share_floor(self):
        # budget 1000, store share 0.5 -> floor 500; a 400-byte
        # overshoot in an unreclaimable store cannot push "a" below it
        accountant = MemoryAccountant(budget_bytes=1_000)
        store = _FakeStore(800)
        accountant.register_store("a", store, cost_rank=0, share=0.5)
        accountant.register_store("fixed", lambda: 600.0)
        accountant.maybe_reclaim("test")
        # pass 1 stops at the floor; pass 2 then reclaims the rest
        assert store.reclaims[0] == 500
        assert store.resident_bytes() == 400  # 800+600 total, budget 1000

    def test_pass_two_ignores_shares_when_still_over(self):
        accountant = MemoryAccountant(budget_bytes=1_000)
        store = _FakeStore(500)
        accountant.register_store("a", store, cost_rank=0, share=1.0)
        accountant.register_store("fixed", lambda: 1_200.0)
        freed = accountant.maybe_reclaim("test")
        # overshoot 700 > the whole store; pass 1 skips (under its
        # share floor), pass 2 empties it
        assert freed == 500
        assert store.resident_bytes() == 0

    def test_counters_track_pressure_and_bytes(self):
        accountant = MemoryAccountant(budget_bytes=500)
        store = _FakeStore(900)
        accountant.register_store("a", store, cost_rank=0)
        accountant.maybe_reclaim("test")
        assert accountant.counters.get("memory.pressure_events") == 1
        assert accountant.counters.get("memory.reclaimed_bytes") == 400

    def test_sample_enforces_then_reads(self):
        accountant = MemoryAccountant(budget_bytes=500)
        store = _FakeStore(2_000)
        accountant.register_store("a", store, cost_rank=0)
        snap = accountant.sample("test")
        assert snap["total_resident_bytes"] <= 500
        assert snap["reclaimed_bytes"] == 1_500


class TestStoreReclaimHooks:
    def test_trace_store_reclaim_drops_oldest(self):
        store = TraceStore(capacity=64)
        contexts = [new_trace_context() for _ in range(6)]
        for i, ctx in enumerate(contexts):
            store.record(ctx, name=f"t{i}", attrs={"blob": "z" * 2048})
        before = store.resident_bytes()
        freed = store.reclaim(before // 2)
        assert freed > 0
        assert store.resident_bytes() <= before // 2
        assert store.get(contexts[0].trace_id) is None  # oldest evicted
        assert store.get(contexts[-1].trace_id) is not None

    def test_trace_store_incremental_sizes_track_merges(self):
        store = TraceStore(capacity=8)
        ctx = new_trace_context()
        store.record(ctx, name="t")
        first = store.resident_bytes()
        store.record(ctx, attrs={"extra": "w" * 4096})
        assert store.resident_bytes() > first + 4096

    def test_plan_cache_reclaim_is_lru(self):
        from repro.obs.explain import PlanCache

        cache = PlanCache(capacity=16)
        for i in range(4):
            cache.put(f"fp{i}", {"plan": "p" * 1024, "i": i})
        cache.get("fp0")  # refresh fp0 so fp1 is the LRU victim
        before = cache.resident_bytes()
        freed = cache.reclaim(before // 2)
        assert freed > 0
        assert cache.resident_bytes() <= before // 2
        assert cache.get("fp1") is None
