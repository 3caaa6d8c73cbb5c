"""The trace store's byte ledger under random contributions.

Every contribution is charged only what it adds or replaces; one to a
trace not yet resident first stores an empty record in the same step.
Over random sequences of fresh and merging contributions — attrs with values of 4 KB
and more, roots and plans past ``MAX_ROOTS_PER_TRACE``, a ring small
enough to evict — the store's running total must equal the sum of its
entries, the caps must hold with every dropped tree counted, and a
trace recorded in one call must be charged exactly what an empty record
plus one merge of the same contribution is.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.tracing import (
    MAX_ROOTS_PER_TRACE,
    TraceContext,
    TraceStore,
)

TRACE_IDS = [f"{i:032x}" for i in range(4)]

names = st.sampled_from(["", "query:c", "GET /cube/sales/aggregate?drilldown=dim0"])
origins = st.sampled_from(["", "api", "service"])
statuses = st.sampled_from(["ok", "", "TransientError", "http_503"])
values = st.one_of(
    st.sampled_from(["x", "v" * 4096, "w" * 5000]),
    st.integers(-5, 5),
    st.text(max_size=12),
)
attrs = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(["cube", "fingerprint", "path", "blob"]), values),
)
leaves = st.fixed_dictionaries(
    {
        "name": st.sampled_from(["serve_query", "query", "api.request"]),
        "attrs": st.dictionaries(st.sampled_from(["cube", "cache"]), st.text(max_size=4)),
        "duration_s": st.floats(0, 1),
        "io": st.dictionaries(st.sampled_from(["pages_read", "seeks"]), st.floats(0, 9)),
        "children": st.just([]),
    }
)
trees = st.recursive(
    leaves,
    lambda inner: st.fixed_dictionaries(
        {"name": st.just("query"), "children": st.lists(inner, max_size=3)}
    ),
    max_leaves=6,
)
tree_lists = st.one_of(
    st.none(),
    st.lists(trees, max_size=3),
    # past the cap in one contribution
    st.lists(st.just({"name": "s", "children": []}), min_size=30, max_size=40),
)
contributions = st.fixed_dictionaries(
    {
        "name": names,
        "origin": origins,
        "status": statuses,
        "latency_s": st.floats(0, 1),
        "roots": tree_lists,
        "plans": tree_lists,
        "attrs": attrs,
    }
)


def ledger_is_the_sum_of_its_entries(store: TraceStore) -> bool:
    entries = store.top_entries(store.capacity)
    return store.resident_bytes() == sum(entry["bytes"] for entry in entries)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(TRACE_IDS), origins, contributions),
        min_size=1,
        max_size=30,
    )
)
def test_the_ledger_is_the_sum_of_its_entries(steps):
    store = TraceStore(capacity=3)
    for trace_id, context_origin, contribution in steps:
        resident = store.get(trace_id)
        kept = {
            "roots": len(resident.roots) if resident else 0,
            "plans": len(resident.plans) if resident else 0,
        }
        before = store.counters.snapshot()
        store.record(TraceContext(trace_id, context_origin), **contribution)
        assert ledger_is_the_sum_of_its_entries(store)
        after = store.counters.snapshot()
        record = store.get(trace_id)
        for field in ("roots", "plans"):
            offered = len(contribution[field] or ())
            room = MAX_ROOTS_PER_TRACE - kept[field]
            assert len(getattr(record, field)) == kept[field] + min(offered, room)
            counter = f"traces.{field}_dropped"
            dropped = after.get(counter, 0) - before.get(counter, 0)
            assert dropped == max(0, offered - room)
        stored = after.get("traces.stored", 0) - before.get("traces.stored", 0)
        merged = after.get("traces.merged", 0) - before.get("traces.merged", 0)
        assert (stored, merged) == ((0, 1) if resident else (1, 0))
    assert len(store) <= store.capacity


@settings(max_examples=150, deadline=None)
@given(origins, contributions)
def test_a_trace_recorded_whole_is_charged_as_an_empty_one_plus_a_merge(
    context_origin, contribution
):
    context = TraceContext(TRACE_IDS[0], context_origin)
    whole, merged = TraceStore(), TraceStore()
    whole.record(context, **contribution)
    merged.record(context)
    merged.record(context, **contribution)
    assert whole.resident_bytes() == merged.resident_bytes()
    one, two = whole.get(context.trace_id), merged.get(context.trace_id)
    for field in ("origin", "name", "status", "latency_s", "attrs", "roots", "plans"):
        assert getattr(one, field) == getattr(two, field), field
