"""Tests for the central metrics registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MetricsError
from repro.obs import MetricsRegistry
from repro.obs.histogram import Histogram
from repro.util.stats import Counters, counter_delta


class TestSources:
    def test_register_and_merge(self):
        registry = MetricsRegistry()
        a, b = Counters(), Counters()
        registry.register("a", a)
        registry.register("b", b)
        a.add("x", 1)
        b.add("x", 2)
        b.add("y", 3)
        assert registry.merged_snapshot() == {"x": 3, "y": 3}

    def test_a_taken_name_goes_live_under_a_serial(self):
        registry = MetricsRegistry()
        first, second, third = Counters(), Counters(), Counters()
        assert registry.register("a", first) == "a"
        assert registry.register("a", second) == "a#2"
        assert registry.register("a", third) == "a#3"
        assert registry.counters("a") is first
        assert registry.counters("a#2") is second

    def test_each_owner_unregisters_only_its_own(self):
        registry = MetricsRegistry()
        first, second = Counters(), Counters()
        first_name = registry.register("a", first)
        second_name = registry.register("a", second)
        first.add("x", 1)
        second.add("x", 2)
        registry.unregister(first_name)
        assert registry.source_names() == [second_name]
        assert registry.counters(second_name) is second
        second.add("x", 4)
        assert registry.merged_snapshot() == {"x": 7}
        # the freed name goes to the next owner
        assert registry.register("a", Counters()) == "a"

    def test_unregister(self):
        registry = MetricsRegistry()
        bag = Counters()
        name = registry.register("a", bag)
        bag.add("x", 1)
        registry.unregister(name)
        assert registry.snapshot_by_source() == {"retired": {"x": 1}}
        with pytest.raises(MetricsError):
            registry.unregister(name)
        with pytest.raises(MetricsError):
            registry.counters(name)

    def test_scoped_registration(self):
        registry = MetricsRegistry()
        bag = Counters()
        with registry.scoped("query", bag):
            bag.add("probes", 2)
            assert registry.merged_snapshot() == {"probes": 2}
        assert registry.source_names() == []

    def test_scoped_unregisters_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.scoped("query", Counters()):
                raise RuntimeError("boom")
        assert registry.source_names() == []

    def test_snapshot_by_source(self):
        registry = MetricsRegistry()
        bag = Counters()
        registry.register("a", bag)
        bag.add("x", 1)
        registry.register("b", Counters())
        assert registry.snapshot_by_source() == {"a": {"x": 1}, "b": {}}


class TestCountersOnlyCountUp:
    def test_scoped_bag_is_retired_not_dropped(self):
        registry = MetricsRegistry()
        bag = Counters()
        with registry.scoped("query", bag):
            bag.add("probes", 2)
        assert registry.merged_snapshot() == {"probes": 2}
        assert registry.snapshot_by_source() == {"retired": {"probes": 2}}

    def test_retired_name_is_reserved(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.register("retired", Counters())

    def test_idle_source_is_skipped_by_identity(self):
        registry = MetricsRegistry()
        idle, busy = Counters(), Counters()
        registry.register("idle", idle)
        registry.register("busy", busy)
        idle.add("x", 5)
        before = registry.snapshot_by_source()
        busy.add("y", 1)
        after = registry.snapshot_by_source()
        assert after["idle"] is before["idle"]
        assert after["busy"] is not before["busy"]

        class Untouchable(dict):
            def items(self):
                raise AssertionError("an idle source's snapshot was read")

        same = Untouchable(x=5)
        assert counter_delta(
            {"idle": same, "busy": before["busy"]},
            {"idle": same, "busy": after["busy"]},
        ) == {"y": 1}

    def test_snapshot_is_refrozen_after_an_increment(self):
        bag = Counters()
        bag.add("x")
        first = bag.frozen()
        assert bag.frozen() is first
        bag.add("x")
        assert first == {"x": 1}  # a handed-out snapshot never changes
        assert bag.frozen() == {"x": 2}


_KEYS = st.sampled_from(["a", "b", "c"])
_AMOUNTS = st.integers(min_value=1, max_value=9)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 5), _KEYS, _AMOUNTS),
        st.tuples(
            st.just("add_many"),
            st.integers(0, 5),
            st.dictionaries(_KEYS, _AMOUNTS, min_size=1),
        ),
        st.tuples(st.just("register")),
        st.tuples(st.just("unregister"), st.integers(0, 5)),
        st.tuples(st.just("enter")),
        st.tuples(st.just("exit"), st.integers(0, 5)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(_STEPS)
def test_totals_never_drop_and_deltas_equal_increments(steps):
    """Random add / register / unregister / scoped enter+exit sequences.

    Every merged total is non-decreasing from step to step and
    ``counter_delta`` over any stretch equals the increments made in it
    — across a scoped exit or a plain unregister, and when a later bag
    reuses the name ``query``.
    """
    registry = MetricsRegistry()
    plain: dict[str, Counters] = {}
    scoped: list[tuple[object, Counters]] = []
    serial = 0

    def live():
        return list(plain.values()) + [bag for _, bag in scoped]

    stretch_start = registry.snapshot_by_source()
    stretch: dict[str, float] = {}
    previous = registry.snapshot_by_source()
    previous_totals = registry.merged_snapshot()
    for step in steps:
        made: dict[str, float] = {}
        if step[0] in ("add", "add_many") and live():
            bag = live()[step[1] % len(live())]
            if step[0] == "add":
                bag.add(step[2], step[3])
                made = {step[2]: step[3]}
            else:
                bag.add_many(step[2])
                made = dict(step[2])
        elif step[0] == "register":
            serial += 1
            bag = Counters()
            plain[registry.register(f"s{serial}", bag)] = bag
        elif step[0] == "unregister" and plain:
            name = sorted(plain)[step[1] % len(plain)]
            registry.unregister(name)
            del plain[name]
        elif step[0] == "enter":
            bag = Counters()
            manager = registry.scoped("query", bag)
            manager.__enter__()
            scoped.append((manager, bag))
        elif step[0] == "exit" and scoped:
            manager, _ = scoped.pop(step[1] % len(scoped))
            manager.__exit__(None, None, None)

        now = registry.snapshot_by_source()
        totals = registry.merged_snapshot()
        assert counter_delta(previous, now) == made
        for name, value in made.items():
            stretch[name] = stretch.get(name, 0) + value
        assert counter_delta(stretch_start, now) == stretch
        for name, value in previous_totals.items():
            assert totals.get(name, 0) >= value
        previous, previous_totals = now, totals


class TestGauges:
    def test_register_and_sample(self):
        registry = MetricsRegistry()
        registry.register_gauge("depth", lambda: 7)
        assert registry.gauge_values() == {"depth": 7.0}

    def test_a_taken_gauge_name_goes_live_under_a_serial(self):
        registry = MetricsRegistry()
        first = registry.register_gauge("g", lambda: 1)
        second = registry.register_gauge("g", lambda: 2)
        assert (first, second) == ("g", "g#2")
        assert registry.gauge_values() == {"g": 1.0, "g#2": 2.0}
        registry.unregister_gauge(first)
        assert registry.gauge_values() == {"g#2": 2.0}
        with pytest.raises(MetricsError):
            registry.unregister_gauge(first)

    def test_gauges_do_not_join_counter_merge(self):
        registry = MetricsRegistry()
        registry.register_gauge("g", lambda: 9)
        assert registry.merged_snapshot() == {}


class TestHistograms:
    def test_shared_by_name(self):
        registry = MetricsRegistry()
        first = registry.register_histogram("h")
        assert registry.register_histogram("h") is first
        registry.observe("h", 0.5)
        assert first.count == 1

    def test_an_owners_own_histogram_needs_a_free_name(self):
        registry = MetricsRegistry()
        own = Histogram()
        assert registry.register_histogram("h", own) is own
        assert registry.register_histogram("h", own) is own
        with pytest.raises(MetricsError):
            registry.register_histogram("h", Histogram())
