"""The LRU query-result cache with generation-based invalidation.

Entries are keyed by ``(cube, fingerprint)`` (see
:mod:`repro.serve.fingerprint`) and stamped with the cube's write
generation at compute time.  Invalidation is belt *and* braces:

- eagerly, the :class:`~repro.serve.service.QueryService` write listener
  calls :meth:`invalidate_cube` — exactly the written cube's entries
  drop, never the whole cache;
- lazily, :meth:`get` re-validates the stored generation against the
  cube's current one, so even a racing write that lands between a
  lookup and a store can never cause a stale read.

Every entry's byte footprint is measured at store time
(:func:`~repro.obs.memory.deep_sizeof`) into the
:class:`~repro.obs.memory.SizedStore` ledger, so the memory
accountant's usage callback is O(1); ``reclaim`` shrinks LRU-first
under memory pressure — the cache is the cheapest store to rebuild, so
it is first in the eviction order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.obs.memory import SizedStore, deep_sizeof


@dataclass(frozen=True)
class CacheEntry:
    """One cached result and the generation it was computed at."""

    generation: int
    value: Any


class ResultCache(SizedStore):
    """Thread-safe LRU of query results keyed by canonical fingerprint."""

    _evict_counter = "result_cache.evictions"
    _pressure_counter = "result_cache.pressure_evictions"

    def __init__(self, capacity: int = 256):
        super().__init__(capacity)

    def get(  # type: ignore[override]
        self, cube: str, fingerprint: str, generation: int
    ):
        """The cached value, or ``None`` on miss / generation mismatch."""
        key = (cube, fingerprint)
        # one lock section on the serving hot path, over the store's map
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.generation != generation:
                # lazy invalidation: computed against older data
                self._drop(key)
                self.counters.add("result_cache.stale_drops")
                entry = None
            if entry is None:
                self.counters.add("result_cache.misses")
                return None
            self._entries.move_to_end(key)
        self.counters.add("result_cache.hits")
        return entry.value

    def put(  # type: ignore[override]
        self, cube: str, fingerprint: str, generation: int, value
    ) -> None:
        """Store one result computed at ``generation``."""
        key = (cube, fingerprint)
        nbytes = deep_sizeof((key, generation, value))
        super().put(key, CacheEntry(generation, value), nbytes)

    def invalidate_cube(self, cube: str) -> int:
        """Drop exactly one cube's entries; returns how many dropped."""
        dropped = self.drop_where(lambda key: key[0] == cube)
        if dropped:
            self.counters.add("result_cache.invalidations", dropped)
        return dropped

    def _label(self, key) -> str:
        cube, fingerprint = key
        return f"{cube}/{fingerprint}"
