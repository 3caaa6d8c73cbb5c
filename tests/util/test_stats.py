"""Tests for counters and timers."""

import time

from repro.util import Counters, Timer


class TestCounters:
    def test_unknown_counter_reads_zero(self):
        assert Counters().get("anything") == 0.0

    def test_add_and_get(self):
        c = Counters()
        c.add("reads")
        c.add("reads", 2)
        assert c.get("reads") == 3

    def test_add_many_equals_repeated_add(self):
        one, many = Counters(), Counters()
        for bag in (one, many):
            bag.add("reads", 2)
        one.add("reads")
        one.add("bytes", 8192)
        many.add_many({"reads": 1.0, "bytes": 8192})
        assert many.snapshot() == one.snapshot()

    def test_counts_only_up(self):
        # a cost is a difference of snapshots; nothing empties a bag
        assert not hasattr(Counters(), "reset")

    def test_snapshot_drops_zeros(self):
        c = Counters()
        c.add("a", 1)
        c.add("b", 0)
        assert c.snapshot() == {"a": 1}

    def test_merge(self):
        a, b = Counters(), Counters()
        a.add("x", 1)
        b.add("x", 2)
        b.add("y", 3)
        a.merge(b)
        assert a.get("x") == 3 and a.get("y") == 3

    def test_iadd_merges_in_place(self):
        a, b = Counters(), Counters()
        a.add("x", 1)
        b.add("x", 2)
        b.add("y", 3)
        a_before = a
        a += b
        assert a is a_before
        assert a.get("x") == 3 and a.get("y") == 3
        assert b.get("x") == 2  # the right-hand side is untouched

    def test_repr_is_sorted(self):
        c = Counters()
        c.add("zz", 1)
        c.add("aa", 2)
        assert repr(c).index("aa") < repr(c).index("zz")


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.005

    def test_accumulates_across_uses(self):
        t = Timer()
        with t:
            pass
        first = t.elapsed
        with t:
            time.sleep(0.005)
        assert t.elapsed > first

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.elapsed == 0.0

    def test_nested_timers_accumulate_independently(self):
        outer, inner = Timer(), Timer()
        with outer:
            with inner:
                time.sleep(0.005)
        assert inner.elapsed > 0
        assert outer.elapsed >= inner.elapsed
