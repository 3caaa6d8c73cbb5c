"""Model-based test of :class:`SizedStore`, the byte ledger every bounded
cache and the trace store share, and of its pressure-hook contract.

A random sequence of ``put`` / ``get`` / ``peek`` / ``pop`` /
``drop_where`` / ``grow`` / ``reclaim`` runs against a store of capacity
1–8 and against an ``OrderedDict`` of sizes.  After every step the
ledger equals the sum of its entries, the count stays within capacity,
and the keys — oldest first, the eviction order — match the model.

The pressure hook — where the memory budget is checked — fires exactly
once per growth step (``put``, ``grow``, a trace merge, a chunk-cache
miss), never for a read or a shrink, and never under a lock the step
holds.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.memory import MemoryAccountant, SizedStore
from repro.obs.tracing import TraceStore, new_trace_context
from repro.serve import ChunkCache

KEYS = st.integers(0, 11)
BYTES = st.integers(0, 500)

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS, BYTES),
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("peek"), KEYS),
        st.tuples(st.just("pop"), KEYS),
        st.tuples(st.just("drop_where"), st.integers(2, 4), st.integers(0, 3)),
        st.tuples(st.just("grow"), KEYS, BYTES),
        st.tuples(st.just("reclaim"), st.integers(0, 2_000)),
    ),
    max_size=60,
)


def _apply(store: SizedStore, model: OrderedDict, op: tuple) -> None:
    """Run ``op`` on both and check what it returned."""
    kind, *args = op
    if kind == "put":
        key, nbytes = args
        store.put(key, f"v{key}", nbytes)
        model.pop(key, None)
        model[key] = nbytes
        while len(model) > store.capacity:
            model.popitem(last=False)
    elif kind == "get":
        (key,) = args
        assert store.get(key) == (f"v{key}" if key in model else None)
        if key in model:
            model.move_to_end(key)
    elif kind == "peek":
        (key,) = args
        assert store.peek(key) == (f"v{key}" if key in model else None)
    elif kind == "pop":
        (key,) = args
        assert store.pop(key) == (f"v{key}" if key in model else None)
        model.pop(key, None)
    elif kind == "drop_where":
        modulus, remainder = args
        doomed = [key for key in model if key % modulus == remainder]
        assert store.drop_where(lambda key: key % modulus == remainder) == len(
            doomed
        )
        for key in doomed:
            del model[key]
    elif kind == "grow":
        key, nbytes = args
        store.grow(key, nbytes)
        if key in model:
            model[key] += nbytes
    else:
        (target,) = args
        before = sum(model.values())
        freed = store.reclaim(target)
        while model and sum(model.values()) > target:
            model.popitem(last=False)
        assert freed == before - sum(model.values())
        assert not model or store.resident_bytes() <= target


def _hook(store, *locks):
    """Install a pressure hook that records, per call, whether the
    store's lock or any of ``locks`` was held; returns that record."""
    fired: list[bool] = []

    def hook():
        held = store._lock._is_owned() or any(lock.locked() for lock in locks)
        fired.append(held)

    store.pressure_hook = hook
    return fired


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), OPERATIONS)
def test_ledger_matches_an_ordered_dict(capacity, operations):
    store = SizedStore(capacity)
    fired = _hook(store)
    model: OrderedDict[int, int] = OrderedDict()
    for op in operations:
        before = len(fired)
        _apply(store, model, op)
        assert fired[before:] == ([False] if op[0] in ("put", "grow") else []), op
        assert store._resident_bytes == sum(store._sizes.values())
        assert store.resident_bytes() == sum(model.values())
        assert len(store) == len(model) <= capacity
        assert store.keys() == list(model)
        assert dict(store._sizes) == dict(model)


def test_eviction_counters_split_churn_from_pressure():
    class Counted(SizedStore):
        _evict_counter = "t.evictions"
        _pressure_counter = "t.pressure_evictions"

    store = Counted(2)
    for key in range(3):
        store.put(key, key + 1, 10)
    assert store.keys() == [1, 2]
    assert store.reclaim(0) == 20
    snapshot = store.counters.snapshot()
    assert snapshot["t.evictions"] == 1
    assert snapshot["t.pressure_evictions"] == 2


def test_top_entries_largest_first():
    store = SizedStore(4)
    for key, nbytes in (("a", 5), ("b", 50), ("c", 20)):
        store.put(key, key, nbytes)
    assert store.top_entries(2) == [
        {"key": "b", "bytes": 50},
        {"key": "c", "bytes": 20},
    ]


def test_a_trace_merge_is_one_growth_step():
    store = TraceStore(capacity=4)
    fired = _hook(store)
    context = new_trace_context()
    # a new record is a put and a grow; a merge only a grow: one call each
    store.record(context, roots=[{"name": "a"}])
    assert fired == [False]
    store.record(context, roots=[{"name": "b"}], attrs={"k": 1})
    assert fired == [False, False]
    store.get(context.trace_id)
    store.index()
    store.reclaim(0)
    assert fired == [False, False]


class _StubArray:
    """The two things :meth:`ChunkCache.get_chunk` reads of an array."""

    name = "stub"

    def _read_chunk_direct(self, chunk_no, counters=None):
        return np.arange(chunk_no + 1), np.ones(chunk_no + 1)


def test_a_chunk_miss_fires_once_after_the_io_lock():
    array = _StubArray()
    cache = ChunkCache()
    fired = _hook(cache, cache._io_lock)
    cache.get_chunk(array, 0)
    assert fired == [False]
    cache.get_chunk(array, 0)  # a hit
    cache.invalidate_chunk(array.name, 0)
    cache.invalidate_array(array.name)
    assert fired == [False]
    cache.get_chunk(array, 1)
    cache.clear()
    assert fired == [False, False]


def test_registration_installs_the_budget_check_and_close_clears_it():
    accountant = MemoryAccountant()
    store = SizedStore(4)
    accountant.register_store("s", store)
    calls: list[str] = []
    measured: list[int] = []
    check, usage = accountant.maybe_reclaim, accountant.usage_by_store
    accountant.maybe_reclaim = lambda reason: calls.append(reason) or check(reason)
    accountant.usage_by_store = lambda: measured.append(1) or usage()
    store.put("k", 1, 32)
    # unbudgeted: the hook fired once and returned before measuring
    assert calls == ["s_growth"]
    assert measured == []
    accountant.unregister_store("s")
    assert store.pressure_hook is None
    accountant.register_store("s", store)
    accountant.close()
    assert store.pressure_hook is None
    store.put("k2", 1, 8)
    assert calls == ["s_growth"]


def test_a_budgeted_growth_reclaims_in_place():
    accountant = MemoryAccountant(budget_bytes=100)
    store = SizedStore(8)
    accountant.register_store("s", store)
    for key in range(5):
        store.put(key, key, 40)
        assert store.resident_bytes() <= 100
    assert accountant.counters.get("memory.pressure_events") >= 1
