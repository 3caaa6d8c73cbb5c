"""LRU + generation-validation behavior of the result cache."""

import pytest

from repro.serve import ResultCache


class TestBasics:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get("cube", "fp", 0) is None
        cache.put("cube", "fp", 0, [("row",)])
        assert cache.get("cube", "fp", 0) == [("row",)]
        snap = cache.counters.snapshot()
        assert snap["result_cache.misses"] == 1
        assert snap["result_cache.hits"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(0)

    def test_clear(self):
        cache = ResultCache()
        cache.put("cube", "fp", 0, 1)
        cache.clear()
        assert len(cache) == 0


class TestLRU:
    def test_evicts_least_recently_used(self):
        cache = ResultCache(capacity=2)
        cache.put("c", "a", 0, 1)
        cache.put("c", "b", 0, 2)
        assert cache.get("c", "a", 0) == 1  # refresh a
        cache.put("c", "x", 0, 3)  # evicts b
        assert cache.keys() == [("c", "a"), ("c", "x")]
        assert cache.get("c", "b", 0) is None
        assert cache.counters.get("result_cache.evictions") == 1

    def test_put_refreshes_recency(self):
        cache = ResultCache(capacity=2)
        cache.put("c", "a", 0, 1)
        cache.put("c", "b", 0, 2)
        cache.put("c", "a", 0, 10)  # overwrite refreshes
        cache.put("c", "x", 0, 3)
        assert cache.get("c", "a", 0) == 10
        assert cache.get("c", "b", 0) is None


class TestGenerations:
    def test_stale_generation_is_a_miss_and_drops(self):
        cache = ResultCache()
        cache.put("cube", "fp", 3, "old")
        assert cache.get("cube", "fp", 4) is None
        snap = cache.counters.snapshot()
        assert snap["result_cache.stale_drops"] == 1
        assert snap["result_cache.misses"] == 1
        # the stale entry is gone, not resurrectable at the old generation
        assert cache.get("cube", "fp", 3) is None
        assert len(cache) == 0

    def test_matching_generation_hits(self):
        cache = ResultCache()
        cache.put("cube", "fp", 7, "value")
        assert cache.get("cube", "fp", 7) == "value"


class TestInvalidation:
    def test_invalidate_exactly_one_cube(self):
        """A write to cube ``a`` bumps only ``a``'s generation: each of
        ``a``'s entries drops when looked up, ``b``'s keep hitting."""
        cache = ResultCache()
        cache.put("a", "q1", 0, 1)
        cache.put("a", "q2", 0, 2)
        cache.put("b", "q1", 0, 3)
        assert cache.get("a", "q1", 1) is None
        assert cache.get("a", "q2", 1) is None
        assert cache.keys() == [("b", "q1")]
        assert cache.get("b", "q1", 0) == 3
        assert cache.counters.get("result_cache.stale_drops") == 2

    def test_invalidate_unknown_cube_is_noop(self):
        """A lookup on a cube with no entries is a plain miss: it drops
        nothing of another cube's."""
        cache = ResultCache()
        cache.put("a", "q", 0, 1)
        assert cache.get("zzz", "q", 5) is None
        assert len(cache) == 1
        assert cache.counters.get("result_cache.stale_drops") == 0
