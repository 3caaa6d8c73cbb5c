"""Tests for the central metrics registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MetricsError
from repro.obs import MetricsRegistry
from repro.util.stats import Counters, counter_delta


class TestSources:
    def test_register_and_merge(self):
        registry = MetricsRegistry()
        a = registry.register("a", Counters())
        b = registry.register("b", Counters())
        a.add("x", 1)
        b.add("x", 2)
        b.add("y", 3)
        assert registry.merged_snapshot() == {"x": 3, "y": 3}

    def test_duplicate_name_rejected(self):
        registry = MetricsRegistry()
        registry.register("a", Counters())
        with pytest.raises(MetricsError):
            registry.register("a", Counters())

    def test_replace_swaps_the_bag(self):
        registry = MetricsRegistry()
        old = registry.register("a", Counters())
        old.add("x", 1)
        new = registry.register("a", Counters(), replace=True)
        assert registry.counters("a") is new
        assert registry.merged_snapshot() == {}

    def test_unregister(self):
        registry = MetricsRegistry()
        bag = registry.register("a", Counters())
        bag.add("x", 1)
        registry.unregister("a")
        assert registry.merged_snapshot() == {}
        with pytest.raises(MetricsError):
            registry.unregister("a")
        with pytest.raises(MetricsError):
            registry.counters("a")

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
        registry.register("a", Counters()).add("x", 1)
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
        idle = registry.register("idle", Counters())
        busy = registry.register("busy", Counters())
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
    — across a scoped exit, and when a later bag reuses the name
    ``query`` — except where a plain source is unregistered, which takes
    its counts with it (the stretch restarts there).
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
        dropped = False
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
            plain[f"s{serial}"] = registry.register(f"s{serial}", Counters())
        elif step[0] == "unregister" and plain:
            name = sorted(plain)[step[1] % len(plain)]
            registry.unregister(name)
            del plain[name]
            dropped = True
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
        if dropped:
            stretch_start, stretch = now, {}
        else:
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

    def test_duplicate_gauge_rejected_unless_replaced(self):
        registry = MetricsRegistry()
        registry.register_gauge("g", lambda: 1)
        with pytest.raises(MetricsError):
            registry.register_gauge("g", lambda: 2)
        registry.register_gauge("g", lambda: 2, replace=True)
        assert registry.gauge_values() == {"g": 2.0}

    def test_gauges_do_not_join_counter_merge(self):
        registry = MetricsRegistry()
        registry.register_gauge("g", lambda: 9)
        assert registry.merged_snapshot() == {}
