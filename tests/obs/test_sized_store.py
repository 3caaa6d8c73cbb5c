"""Model-based test of :class:`SizedStore`, the byte ledger every bounded
cache and telemetry ring shares.

A random sequence of ``put`` / ``get`` / ``peek`` / ``pop`` /
``drop_where`` / ``grow`` / ``reclaim`` runs against a store of capacity
1–8 and against an ``OrderedDict`` of sizes.  After every step the
ledger equals the sum of its entries, the count stays within capacity,
and the keys — oldest first, the eviction order — match the model.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.memory import SizedStore

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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), OPERATIONS)
def test_ledger_matches_an_ordered_dict(capacity, operations):
    store = SizedStore(capacity)
    model: OrderedDict[int, int] = OrderedDict()
    for op in operations:
        _apply(store, model, op)
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
