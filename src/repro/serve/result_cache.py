"""The LRU query-result cache with generation-based invalidation.

Entries are keyed by ``(cube, fingerprint)`` (see
:mod:`repro.serve.fingerprint`) and stamped with the cube's write
generation at compute time.  The generation is the one staleness rule:
every engine write bumps its cube's, and :meth:`get` drops an entry
whose generation is not the cube's current one
(``result_cache.stale_drops``), so even a write that lands between a
lookup and a store can never cause a stale read.  A stale entry no
lookup reaches ages out LRU-first like any other.

Every entry is charged at store time from its shape
(:func:`result_bytes`: ``len(rows)`` times one row's tuple and numbers,
plus a fixed part), into the :class:`~repro.obs.memory.SizedStore`
ledger, so the memory accountant's usage callback is O(1); ``reclaim``
shrinks LRU-first under memory pressure — the cache is the cheapest
store to rebuild, so it is first in the eviction order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any

from repro.obs.memory import TREE_ENTRY_BYTES, SizedStore

#: a cached answer's fixed part beyond its key strings and stats dict:
#: the key tuple, the generation, the ``CacheEntry`` and the
#: ``QueryResult`` with its field table, backend name and timings
RESULT_FIXED_BYTES = 640


def result_bytes(cube: str, fingerprint: str, value: Any) -> int:
    """Charge one cached answer from its shape, reading ``len(rows)``
    and at most one row.

    Every row of a result has the shape of the first: a tuple of group
    labels and numbers.  A row costs its tuple plus its numbers; its
    labels count as references, because they are the array's own
    IndexToIndex target keys and dimension values, resident anyway
    (a label that is an int, a dimension key, is charged as a number).
    The key, the stats dict (charged like a span's, by its entry count)
    and :data:`RESULT_FIXED_BYTES` are the fixed part.  Over every
    backend's answers the charge stays within 0.5–2x of a full object
    walk (``tests/obs/test_shape_charges.py``).
    """
    rows = getattr(value, "rows", ())
    stats = getattr(value, "stats", {})
    nbytes = (
        RESULT_FIXED_BYTES
        + sys.getsizeof(cube)
        + sys.getsizeof(fingerprint)
        + sys.getsizeof(stats)
        + len(stats) * TREE_ENTRY_BYTES
        + sys.getsizeof(rows)
    )
    n_rows = len(rows)
    if n_rows:
        row = rows[0]
        numbers = sum(
            sys.getsizeof(item)
            for item in row
            if isinstance(item, (int, float))
        )
        nbytes += n_rows * (sys.getsizeof(row) + numbers)
    return nbytes


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
        nbytes = result_bytes(cube, fingerprint, value)
        super().put((cube, fingerprint), CacheEntry(generation, value), nbytes)

    def _label(self, key) -> str:
        cube, fingerprint = key
        return f"{cube}/{fingerprint}"
