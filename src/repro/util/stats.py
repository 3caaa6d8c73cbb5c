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
    """A bag of named numeric counters.

    Unknown names read as zero, so callers can add domain-specific
    counters (``chunks_read``, ``btree_probes``, ...) without
    registration.  All operations are thread-safe: the serving layer
    lets concurrent queries account into shared bags (the buffer pool's,
    an array's), so increments must not be lost to read-modify-write
    races.
    """

    def __init__(self) -> None:
        self._values: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment ``name`` by ``amount``."""
        with self._lock:
            self._values[name] += amount

    def add_many(self, amounts: dict[str, float]) -> None:
        """Increment several counters under one lock acquisition."""
        with self._lock:
            for name, amount in amounts.items():
                self._values[name] += amount

    def get(self, name: str) -> float:
        """Current value of ``name`` (0 if never incremented)."""
        with self._lock:
            return self._values.get(name, 0.0)

    def reset(self) -> dict[str, float]:
        """Zero every counter; returns the pre-reset snapshot."""
        with self._lock:
            before = {k: v for k, v in self._values.items() if v}
            self._values.clear()
        return before

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy of all non-zero counters."""
        with self._lock:
            return {k: v for k, v in self._values.items() if v}

    def merge(self, other: "Counters") -> None:
        """Add every counter of ``other`` into this bag."""
        # snapshot first: taking both locks at once could deadlock
        # against a concurrent merge in the opposite direction
        self.add_many(other.snapshot())

    def __iadd__(self, other: "Counters") -> "Counters":
        """``bag += other`` merges ``other`` into this bag."""
        self.merge(other)
        return self

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._values.items()))
        return f"Counters({inner})"


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
