"""Counters and timers used for I/O and CPU accounting.

The performance study never sleeps to simulate a disk; instead the
storage layer *accounts* simulated I/O seconds into a :class:`Counters`
bag while wall-clock CPU time is measured with :class:`Timer`.  Reports
combine the two (see ``repro.bench.harness``).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


class Counters:
    """A bag of named numeric counters that only count up.

    Unknown names read as zero, so callers can add domain-specific
    counters (``chunks_read``, ``btree_probes``, ...) without
    registration.  All operations are thread-safe: the serving layer
    lets concurrent queries account into shared bags (the buffer pool's,
    an array's), so increments must not be lost to read-modify-write
    races.  A bag is never zeroed: what a query, span or shard task
    cost is the :func:`counter_delta` of two snapshots.
    """

    def __init__(self) -> None:
        self._values: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._frozen: dict[str, float] | None = None

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment ``name`` by ``amount``."""
        with self._lock:
            self._values[name] += amount
            self._frozen = None

    def add_many(self, amounts: dict[str, float]) -> None:
        """Increment several counters under one lock acquisition."""
        with self._lock:
            for name, amount in amounts.items():
                self._values[name] += amount
            self._frozen = None

    def get(self, name: str) -> float:
        """Current value of ``name`` (0 if never incremented)."""
        with self._lock:
            return self._values.get(name, 0.0)

    def frozen(self) -> dict[str, float]:
        """All non-zero counters as a shared dict: the same object
        until the next increment, so :func:`counter_delta` can skip an
        idle bag by identity.  Read-only (:meth:`snapshot` copies)."""
        with self._lock:
            frozen = self._frozen
            if frozen is None:
                frozen = self._frozen = {
                    k: v for k, v in self._values.items() if v
                }
            return frozen

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy of all non-zero counters."""
        return dict(self.frozen())

    def merge(self, other: "Counters") -> None:
        """Add every counter of ``other`` into this bag."""
        # snapshot first: taking both locks at once could deadlock
        # against a concurrent merge in the opposite direction
        self.add_many(other.frozen())

    def __iadd__(self, other: "Counters") -> "Counters":
        """``bag += other`` merges ``other`` into this bag."""
        self.merge(other)
        return self

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._values.items()))
        return f"Counters({inner})"


_EMPTY: dict[str, float] = {}


def counter_delta(
    before: dict[str, dict[str, float]], after: dict[str, dict[str, float]]
) -> dict[str, float]:
    """What moved between two ``{source: frozen snapshot}`` maps.

    The one way a cost is computed: per-source differences summed by
    counter name, zero movement dropped.  A source whose snapshot is the
    same object on both sides did not increment in between and is
    skipped unread; one present on a single side counts whole (a
    per-query bag that registered, or was folded into the registry's
    retired bag, which gained the same amount).
    """
    delta: dict[str, float] = {}
    for source, now in after.items():
        was = before.get(source, _EMPTY)
        if was is not now:
            for name, value in now.items():
                delta[name] = delta.get(name, 0.0) + value
            for name, value in was.items():
                delta[name] = delta.get(name, 0.0) - value
    for source, was in before.items():
        if source not in after:
            for name, value in was.items():
                delta[name] = delta.get(name, 0.0) - value
    return {name: change for name, change in delta.items() if change}


@dataclass
class Timer:
    """Context manager measuring wall-clock elapsed seconds."""

    elapsed: float = 0.0
    _start: float = field(default=0.0, repr=False)

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed += time.perf_counter() - self._start

    def reset(self) -> None:
        """Zero the accumulated elapsed time."""
        self.elapsed = 0.0
