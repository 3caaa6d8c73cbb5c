"""Resident-set accounting with pressure-aware eviction.

The paper's core trade spends memory-resident array structure — buffer
pool pages, decoded chunks, precomputed rollup grains, cached results —
to buy query speed.  Every one of those stores already bounds its
*entry count*, but none of them could answer "how many **bytes** is
this process holding, and in which store?".  The
:class:`MemoryAccountant` closes that gap.  Each resident store
registers with it, either as a :class:`SizedStore` (the one byte
ledger every bounded cache, the rollup grains and the trace store
share) or as a usage callback that is accounted but never evicted from
(the buffer pool).  The accountant exports
per-store ``memory.<store>.resident_bytes`` gauges plus one
``memory.total_resident_bytes`` through the
:class:`~repro.obs.registry.MetricsRegistry` (so ``/metrics`` sees
them), and serves the ``/memory`` route and ``repro mem`` breakdowns.

What each store is charged, and how closely:

- decoded chunks and rollup grains: their numpy buffers' ``nbytes``
  (a chunk also a fixed per-entry overhead), exact by construction;
- a cached result: ``len(rows)`` times one row's tuple and numbers
  plus a fixed part
  (:func:`~repro.serve.result_cache.result_bytes`), reading at most
  one row;
- a trace's span trees and a cached plan: :func:`tree_bytes`, each
  dict and list its own size plus a flat rate per entry, never
  measuring a value; a trace's attrs by what each merge adds or
  replaces.

No entry is walked object by object; over the test corpus every shape
charge stays within 0.5–2x of a full walk
(``tests/obs/test_shape_charges.py``).

On top of accounting sits *pressure-aware eviction*: when
``ServiceConfig.memory_budget_bytes`` is set, :meth:`maybe_reclaim`
shrinks stores in cheap-to-rebuild-first order (result cache →
decoded chunks → coldest rollup grains by routed-hit recency →
cached plans → traces) until the total fits the budget again.  The
budget is checked where a store grows: registering a
:class:`SizedStore` installs :meth:`maybe_reclaim` as its pressure
hook, called once per growth step.  Pass one respects each store's
soft share of the budget — a store already below its share is skipped
— and pass two reclaims unconditionally if the overshoot survives pass
one.  An evicted grain is rebuilt by the next request routed to it, so
serving correctness is untouched; the reclaim itself is
counted (``memory.pressure_events`` / ``memory.reclaimed_bytes``) and
wrapped in a tracer span so it shows up in EXPLAIN ANALYZE and in the
trace of the request that triggered it.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any

from repro.obs.tracer import get_tracer
from repro.util.stats import Counters

#: what one entry of a dict or list in a span or plan tree is charged
#: beyond the container's own table: a boxed float (24 B) plus a share
#: of its key string, which the nodes of one tree repeat
TREE_ENTRY_BYTES = 56


def tree_bytes(node: dict | list) -> int:
    """Charge a span or plan tree — nested dicts and lists — from its
    shape.

    Each dict and list in the tree is charged its own ``sys.getsizeof``
    plus :data:`TREE_ENTRY_BYTES` per entry; a string or number in it is
    never measured, only type-checked, so an entry costs one step
    whatever it holds.  A long string value is under-charged; over traced
    requests and analyzed plans the charge stays within 0.5–2x of a
    full object walk (``tests/obs/test_shape_charges.py``).
    """
    nbytes = sys.getsizeof(node) + len(node) * TREE_ENTRY_BYTES
    for value in node.values() if type(node) is dict else node:
        # exact type checks: isinstance with a tuple is ~1.4x slower
        if type(value) is dict or type(value) is list:
            nbytes += tree_bytes(value)
    return nbytes


class SizedStore:
    """A thread-safe keyed store with one byte ledger.

    The contract :class:`MemoryAccountant` reads — an O(1)
    :meth:`resident_bytes`, :meth:`reclaim` and :meth:`top_entries` —
    written once for every bounded store.  Entries sit in one
    insertion-ordered map whose head is the next victim, both of the
    count cap and of :meth:`reclaim`, unless a subclass's
    :meth:`_victim` looks past it: :meth:`get` moves a key to the
    tail (an LRU cache), :meth:`peek` leaves it where it is (a ring that
    only peeks is FIFO).  Callers charge an entry's bytes themselves,
    outside the lock.  ``_lock`` is the store's one lock, re-entrant so
    a subclass can hold it around a compound step.

    ``pressure_hook`` is where the memory budget is checked: the
    accountant installs it at registration, and each growth step — a
    :meth:`put` or :meth:`grow`, or a subclass's compound step built
    from :meth:`_put` / :meth:`_grow` — calls it once, through
    :meth:`_grew`.  The lock rule: the hook, and so every reclaim, never
    runs under a store's ``_lock`` or another lock the step holds (the
    chunk cache's ``_io_lock``); the service's engine lock may be held.
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
        #: called once after each growth step, with no store lock held
        self.pressure_hook: Callable[[], object] | None = None

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

    def _grew(self) -> None:
        """End one growth step: call the pressure hook (no lock held)."""
        hook = self.pressure_hook
        if hook is not None:
            hook()

    def put(self, key: Hashable, value: Any, nbytes: int) -> None:
        """Store ``value`` as the newest entry, charged ``nbytes``;
        :meth:`_victim` entries leave while the count is over capacity."""
        self._put(key, value, nbytes)
        self._grew()

    def _put(self, key: Hashable, value: Any, nbytes: int) -> None:
        """:meth:`put` without the pressure hook, for a compound step."""
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
        self._grow(key, nbytes)
        self._grew()

    def _grow(self, key: Hashable, nbytes: int) -> None:
        """:meth:`grow` without the pressure hook, for a compound step."""
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

    def items(self) -> list:
        """The resident ``(key, value)`` pairs, oldest first."""
        with self._lock:
            return list(self._entries.items())

    def clear(self) -> None:
        """Drop everything (not an eviction: nothing is counted)."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self._resident_bytes = 0

    # -- the accountant's contract -------------------------------------------

    def resident_bytes(self) -> int:
        """Charged bytes across every resident entry (O(1))."""
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
    exactly this reason).  ``sized`` is the store itself when it is a
    :class:`SizedStore`: its ``reclaim(target)`` shrinks it to at most
    ``target`` resident bytes and returns how many bytes it actually
    freed.  A bare usage callback (the buffer pool) is accounted but
    never evicted from here.  ``cost_rank`` orders reclaim
    cheapest-to-rebuild first; ``share`` is the store's soft fraction
    of the budget, the floor pass one will not shrink below.
    """

    name: str
    usage: Callable[[], float]
    cost_rank: int = 100
    share: float = 0.0
    sized: SizedStore | None = None
    #: the pressure hook this registration installed on ``sized``
    hook: Callable[[], object] | None = None


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
        # hook (e.g. the chunk cache refilling during grain fallback)
        # must not recurse into a second reclaim
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
        cost_rank: int = 100,
        share: float = 0.0,
    ) -> None:
        """Register one resident store under ``name`` (idempotent).

        A :class:`SizedStore` brings its own ledger, reclaim and top
        entries, and gets the budget check as its pressure hook; anything
        else is a usage callback, accounted only.
        """
        sized = store if isinstance(store, SizedStore) else None
        usage = sized.resident_bytes if sized is not None else store
        account = StoreAccount(
            name=name, usage=usage, cost_rank=cost_rank, share=share, sized=sized
        )
        if sized is not None:
            reason = f"{name}_growth"
            account.hook = sized.pressure_hook = lambda: self.maybe_reclaim(reason)
        with self._lock:
            self._stores[name] = account
        if self._registry is not None:
            self._registry.register_gauge(
                f"memory.{name}.resident_bytes", usage, replace=True
            )

    def unregister_store(self, name: str) -> None:
        """Drop one store from the ledger (missing names are ignored)."""
        with self._lock:
            account = self._stores.pop(name, None)
        # a store two accountants share (an engine's grains under two
        # services) keeps the hook the other installed
        if account is not None and account.sized is not None:
            if account.sized.pressure_hook is account.hook:
                account.sized.pressure_hook = None
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
        merged = [
            {"store": store.name, **entry}
            for store in stores
            if store.sized is not None
            for entry in store.sized.top_entries(n)
        ]
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
                    (
                        (s, s.sized)
                        for s in self._stores.values()
                        if s.sized is not None
                    ),
                    key=lambda pair: pair[0].cost_rank,
                )
            freed_total = 0
            with get_tracer().span(
                "memory_reclaim",
                reason=reason,
                resident_bytes=total,
                budget_bytes=self.budget_bytes,
            ) as span:
                # pass 1: cheapest-first, down to each store's soft share
                for store, sized in reclaimables:
                    remaining = overshoot - freed_total
                    if remaining <= 0:
                        break
                    current = usage.get(store.name, sized.resident_bytes())
                    floor = int(self.budget_bytes * store.share)
                    if current <= floor:
                        continue
                    target = max(floor, current - remaining)
                    freed_total += sized.reclaim(target)
                # pass 2: still over — shares stop protecting anybody
                if overshoot - freed_total > 0:
                    for _, sized in reclaimables:
                        remaining = overshoot - freed_total
                        if remaining <= 0:
                            break
                        current = sized.resident_bytes()
                        target = max(0, current - remaining)
                        if target < current:
                            freed_total += sized.reclaim(target)
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
