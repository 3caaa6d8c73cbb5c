"""Byte-accurate resident-set accounting with pressure-aware eviction.

The paper's core trade spends memory-resident array structure — buffer
pool pages, decoded chunks, precomputed rollup grains, cached results —
to buy query speed.  Every one of those stores already bounds its
*entry count*, but none of them could answer "how many **bytes** is
this process holding, and in which store?".  The
:class:`MemoryAccountant` closes that gap.  Each resident store
registers with it, either as a :class:`SizedStore` (the one byte
ledger every bounded cache and telemetry ring shares) or as a
byte-accurate usage callback.  The accountant exports per-store ``memory.<store>.resident_bytes`` gauges plus one
``memory.total_resident_bytes`` through the
:class:`~repro.obs.registry.MetricsRegistry` (so /metrics and
/timeseries both see them), and serves the ``/memory``
route and ``repro mem`` breakdowns.

On top of accounting sits *pressure-aware eviction*: when
``ServiceConfig.memory_budget_bytes`` is set, :meth:`maybe_reclaim`
shrinks stores in cheap-to-rebuild-first order (result cache →
decoded chunks → coldest rollup grains by routed-hit recency →
cached plans → telemetry rings) until the total fits the budget
again.  Pass one respects each store's soft
share of the budget — a store already below its share is skipped — and
pass two reclaims unconditionally if the overshoot survives pass one.
Evicted grains fall back to base-table scans exactly like the stale
path, so serving correctness is untouched; the reclaim itself is
counted (``memory.pressure_events`` / ``memory.reclaimed_bytes``) and
wrapped in a tracer span so it shows up in EXPLAIN ANALYZE and in the
trace of the request that triggered it.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict, deque
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any

from repro.obs.tracer import get_tracer
from repro.util.stats import Counters

#: fallback size for objects ``sys.getsizeof`` cannot measure.
_DEFAULT_OBJECT_BYTES = 64


def deep_sizeof(obj: object) -> int:
    """Recursively measure ``obj`` in bytes, cycle- and share-safe.

    Containers (dict / list / tuple / set / deque) descend into their
    elements; plain objects descend into ``__dict__``.  Anything with a
    numeric ``.nbytes`` (numpy arrays and scalars) is charged its
    buffer size directly instead of being walked — that is what makes
    the accounting *byte-accurate* for the array-heavy stores.  Shared
    sub-objects are charged once (id-memoised), so summing two entries
    that alias one array never double-counts it.
    """
    total = 0
    seen: set[int] = set()
    stack: list[object] = [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        nbytes = getattr(item, "nbytes", None)
        if isinstance(nbytes, (int, float)) and not isinstance(item, memoryview):
            total += int(nbytes)
            continue
        try:
            total += sys.getsizeof(item)
        except TypeError:  # pragma: no cover - exotic C extension types
            total += _DEFAULT_OBJECT_BYTES
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset, deque)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return total


class SizedStore:
    """A thread-safe keyed store with one byte ledger.

    The contract :class:`MemoryAccountant` reads — an O(1)
    :meth:`resident_bytes`, :meth:`reclaim` and :meth:`top_entries` —
    written once for every bounded store.  Entries sit in one
    insertion-ordered map whose head is the next victim, both of the
    count cap and of :meth:`reclaim`, unless a subclass's
    :meth:`_victim` looks past it: :meth:`get` moves a key to the
    tail (an LRU cache), :meth:`peek` leaves it where it is (a ring that
    only peeks is FIFO).  Callers measure an entry's bytes themselves,
    outside the lock.  ``_lock`` is the store's one lock, re-entrant so
    a subclass can hold it around a compound step.
    """

    #: counters bumped once per entry evicted at the count cap / by
    #: :meth:`reclaim` (``None``: not counted)
    _evict_counter: str | None = None
    _pressure_counter: str | None = None

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.counters = Counters()
        self._lock = threading.RLock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self._resident_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _drop(self, key: Hashable) -> int:
        # caller holds the lock
        del self._entries[key]
        nbytes = self._sizes.pop(key)
        self._resident_bytes -= nbytes
        return nbytes

    def _victim(self, spare: Hashable | None) -> Hashable:
        """The key the count cap or :meth:`reclaim` evicts next: the
        oldest.  ``spare`` is the key :meth:`put` just stored, which a
        subclass that looks past the oldest must not pick (caller holds
        the lock; the store is not empty)."""
        return next(iter(self._entries))

    def _evict(self, counter: str | None, spare: Hashable | None = None) -> int:
        # caller holds the lock
        nbytes = self._drop(self._victim(spare))
        if counter is not None:
            self.counters.add(counter)
        return nbytes

    def put(self, key: Hashable, value: Any, nbytes: int) -> None:
        """Store ``value`` as the newest entry, charged ``nbytes``;
        :meth:`_victim` entries leave while the count is over capacity."""
        with self._lock:
            if key in self._entries:
                self._drop(key)
            self._entries[key] = value
            self._sizes[key] = nbytes
            self._resident_bytes += nbytes
            while len(self._entries) > self.capacity:
                self._evict(self._evict_counter, spare=key)

    def get(self, key: Hashable) -> Any:
        """The value under ``key``, refreshed to newest, or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def peek(self, key: Hashable) -> Any:
        """The value under ``key`` without refreshing it, or ``None``."""
        with self._lock:
            return self._entries.get(key)

    def pop(self, key: Hashable) -> Any:
        """Remove ``key`` (not counted as an eviction); its value or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._drop(key)
            return value

    def drop_where(self, predicate: Callable[[Any], bool]) -> int:
        """Remove every entry whose key satisfies ``predicate``; how many."""
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                self._drop(key)
            return len(doomed)

    def grow(self, key: Hashable, nbytes: int) -> None:
        """Charge a resident entry ``nbytes`` more (it grew in place)."""
        with self._lock:
            if key in self._sizes:
                self._sizes[key] += nbytes
                self._resident_bytes += nbytes

    def keys(self) -> list:
        """The resident keys, oldest first."""
        with self._lock:
            return list(self._entries)

    def values(self) -> list:
        """The resident values, oldest first."""
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        """Drop everything (not an eviction: nothing is counted)."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self._resident_bytes = 0

    # -- the accountant's contract -------------------------------------------

    def resident_bytes(self) -> int:
        """Measured bytes across every resident entry (O(1))."""
        with self._lock:
            return self._resident_bytes

    def reclaim(self, target_bytes: int) -> int:
        """Evict :meth:`_victim`-first until at most ``target_bytes``
        remain.

        Returns the bytes freed.  Counted apart from count-cap eviction,
        so a dashboard can tell churn from a process over its budget.
        """
        freed = 0
        with self._lock:
            while self._entries and self._resident_bytes > target_bytes:
                freed += self._evict(self._pressure_counter)
        return freed

    def top_entries(self, n: int = 10) -> list[dict]:
        """The ``n`` largest entries as ``{"key", "bytes"}`` dicts."""
        with self._lock:
            sized = sorted(
                self._sizes.items(), key=lambda item: item[1], reverse=True
            )
            return [
                {"key": self._label(key), "bytes": nbytes}
                for key, nbytes in sized[:n]
            ]

    def _label(self, key: Hashable) -> str:
        """How :meth:`top_entries` names ``key`` (caller holds the lock)."""
        return str(key)


@dataclass
class StoreAccount:
    """One registered resident store.

    ``usage`` is sampled on every read — it must be O(1) and
    thread-safe (a :class:`SizedStore` keeps a running byte total for
    exactly this reason).  ``reclaim(target)`` shrinks the store to at
    most ``target`` resident bytes and returns how many bytes it
    actually freed; stores without one (the time-series ring, the
    buffer pool) are accounted but never evicted from here.  ``cost_rank``
    orders reclaim cheapest-to-rebuild first; ``share`` is the store's
    soft fraction of the budget, the floor pass one will not shrink
    below.
    """

    name: str
    usage: Callable[[], float]
    reclaim: Callable[[int], int] | None = None
    top_entries: Callable[[int], list[dict]] | None = None
    cost_rank: int = 100
    share: float = 0.0


class MemoryAccountant:
    """Central resident-set ledger plus the pressure-eviction coordinator."""

    def __init__(self, registry=None, budget_bytes: int = 0) -> None:
        if budget_bytes < 0:
            raise ValueError(
                f"memory budget must be >= 0, got {budget_bytes}"
            )
        self.budget_bytes = int(budget_bytes)
        self.counters = Counters()
        self._registry = registry
        self._stores: dict[str, StoreAccount] = {}
        self._lock = threading.RLock()
        # non-reentrant by design: a reclaim that triggers a pressure
        # callback (e.g. the chunk cache refilling during grain
        # fallback) must not recurse into a second reclaim
        self._reclaim_lock = threading.Lock()
        if registry is not None:
            registry.register("obs:memory", self.counters, replace=True)
            registry.register_gauge(
                "memory.total_resident_bytes",
                self.total_resident_bytes,
                replace=True,
            )

    # -- registration ------------------------------------------------------

    def register_store(
        self,
        name: str,
        store: SizedStore | Callable[[], float],
        *,
        reclaim: Callable[[int], int] | None = None,
        top_entries: Callable[[int], list[dict]] | None = None,
        cost_rank: int = 100,
        share: float = 0.0,
    ) -> None:
        """Register one resident store under ``name`` (idempotent).

        A :class:`SizedStore` brings its own ledger, reclaim and top
        entries; anything else is a usage callback, optionally with the
        two hooks beside it.
        """
        if isinstance(store, SizedStore):
            usage: Callable[[], float] = store.resident_bytes
            reclaim, top_entries = store.reclaim, store.top_entries
        else:
            usage = store
        account = StoreAccount(
            name=name,
            usage=usage,
            reclaim=reclaim,
            top_entries=top_entries,
            cost_rank=cost_rank,
            share=share,
        )
        with self._lock:
            self._stores[name] = account
        if self._registry is not None:
            self._registry.register_gauge(
                f"memory.{name}.resident_bytes", usage, replace=True
            )

    def unregister_store(self, name: str) -> None:
        """Drop one store from the ledger (missing names are ignored)."""
        with self._lock:
            self._stores.pop(name, None)
        if self._registry is not None:
            # gauges cannot be removed; freeze the reading at zero so a
            # late scrape never calls into a closed store
            self._registry.register_gauge(
                f"memory.{name}.resident_bytes", lambda: 0.0, replace=True
            )

    def store_names(self) -> list[str]:
        """All registered store names, sorted."""
        with self._lock:
            return sorted(self._stores)

    # -- accounting --------------------------------------------------------

    def usage_by_store(self) -> dict[str, int]:
        """Current resident bytes per store, sampled now."""
        with self._lock:
            stores = list(self._stores.values())
        return {store.name: int(store.usage()) for store in stores}

    def total_resident_bytes(self) -> float:
        """Sum of every store's usage callback, sampled now."""
        return float(sum(self.usage_by_store().values()))

    def top_entries(self, n: int = 10) -> list[dict]:
        """The ``n`` largest entries across every store that itemises."""
        with self._lock:
            stores = list(self._stores.values())
        merged: list[dict] = []
        for store in stores:
            if store.top_entries is None:
                continue
            for entry in store.top_entries(n):
                merged.append(
                    {
                        "store": store.name,
                        "key": str(entry.get("key", "")),
                        "bytes": int(entry.get("bytes", 0)),
                    }
                )
        merged.sort(key=lambda entry: entry["bytes"], reverse=True)
        return merged[:n]

    # -- pressure ----------------------------------------------------------

    def maybe_reclaim(self, reason: str = "") -> int:
        """Shrink reclaimable stores until the total fits the budget.

        Returns bytes freed (0 when unbudgeted, under budget, or when
        another thread is already reclaiming — pressure is a process
        condition, one reclaimer is enough).
        """
        if self.budget_bytes <= 0:
            return 0
        if not self._reclaim_lock.acquire(blocking=False):
            return 0
        try:
            usage = self.usage_by_store()
            total = sum(usage.values())
            if total <= self.budget_bytes:
                return 0
            overshoot = total - self.budget_bytes
            self.counters.add("memory.pressure_events")
            with self._lock:
                reclaimables = sorted(
                    (s for s in self._stores.values() if s.reclaim is not None),
                    key=lambda s: s.cost_rank,
                )
            freed_total = 0
            with get_tracer().span(
                "memory_reclaim",
                reason=reason,
                resident_bytes=total,
                budget_bytes=self.budget_bytes,
            ) as span:
                # pass 1: cheapest-first, down to each store's soft share
                for store in reclaimables:
                    remaining = overshoot - freed_total
                    if remaining <= 0:
                        break
                    current = usage.get(store.name, int(store.usage()))
                    floor = int(self.budget_bytes * store.share)
                    if current <= floor:
                        continue
                    target = max(floor, current - remaining)
                    freed_total += max(0, int(store.reclaim(target)))
                # pass 2: still over — shares stop protecting anybody
                if overshoot - freed_total > 0:
                    for store in reclaimables:
                        remaining = overshoot - freed_total
                        if remaining <= 0:
                            break
                        current = int(store.usage())
                        target = max(0, current - remaining)
                        if target < current:
                            freed_total += max(0, int(store.reclaim(target)))
                span.annotate(reclaimed_bytes=freed_total)
            self.counters.add("memory.reclaimed_bytes", freed_total)
            return freed_total
        finally:
            self._reclaim_lock.release()

    # -- sampling / export -------------------------------------------------

    def sample(self, reason: str = "sample") -> dict:
        """Enforce the budget, then read the ledger.

        Enforce-*then*-read is what lets a recorded trajectory prove
        "the budget held at every sample" instead of merely "we
        eventually reclaimed".
        """
        reclaimed = self.maybe_reclaim(reason)
        usage = self.usage_by_store()
        return {
            "total_resident_bytes": sum(usage.values()),
            "stores": usage,
            "reclaimed_bytes": reclaimed,
        }

    def payload(self, top_n: int = 10) -> dict:
        """The ``/memory`` route / ``repro mem`` breakdown."""
        usage = self.usage_by_store()
        return {
            "budget_bytes": self.budget_bytes,
            "total_resident_bytes": sum(usage.values()),
            "stores": usage,
            "top_entries": self.top_entries(top_n),
            "counters": {
                key: value
                for key, value in self.counters.snapshot().items()
                if key.startswith("memory.")
            },
        }

    def close(self) -> None:
        """Unregister every store and the counter source."""
        with self._lock:
            names = list(self._stores)
        for name in names:
            self.unregister_store(name)
        if self._registry is not None:
            try:
                self._registry.unregister("obs:memory")
            except Exception:
                pass
            self._registry.register_gauge(
                "memory.total_resident_bytes", lambda: 0.0, replace=True
            )
