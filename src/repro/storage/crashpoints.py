"""Crash points and deterministic fault plans.

The paper inherited recovery from SHORE and never had to prove it; our
substrate proves its own.  A **crash point** is a named location in a
write path (buffer-pool flush, WAL append, chunk write, ...) where an
installed :class:`FaultPlan` may terminate the "process" by raising
:class:`~repro.errors.SimulatedCrash`.  The crash-recovery harness
(``repro.bench.faultcheck``) iterates :func:`registered_crash_points`
and proves that recovery restores exactly the committed state no matter
where the crash lands.

A plan is installed for the process (every thread) with :func:`fault_plan`;
when no plan is active every :func:`crash_point` call is a near-free no-op, so
the instrumentation stays in production paths permanently.

All randomness (torn-write cut positions, transient-read selection)
comes from the plan's seeded :class:`random.Random`, so every scenario
replays bit-identically from its seed.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import FaultError, SimulatedCrash

#: Size in bytes of a WAL record's fixed framing (header + CRC trailer);
#: the torn-tail cut targets this window so the *final* record tears.
WAL_RECORD_OVERHEAD = 25

#: The built-in crash points.  ``disk.write`` / ``disk.torn_write`` /
#: ``wal.torn_sync`` fire from the ``Faulty*`` wrappers (the pristine
#: simulated disk stays fault-free); the rest fire from the real write
#: paths whenever a plan is active.
BUILTIN_CRASH_POINTS = (
    "pool.flush_page",
    "wal.append",
    "wal.commit",
    "wal.sync",
    "wal.torn_sync",
    "lob.write",
    "lob.write_at",
    "disk.write",
    "disk.torn_write",
    "checkpoint.pre_truncate",
)

_registry: set[str] = set(BUILTIN_CRASH_POINTS)
_active_plan: "FaultPlan | None" = None  # set and restored by fault_plan


def register_crash_point(name: str) -> str:
    """Add a crash point name to the registry (idempotent)."""
    _registry.add(name)
    return name


def registered_crash_points() -> tuple[str, ...]:
    """Every known crash point, sorted — the harness's crash matrix."""
    return tuple(sorted(_registry))


def active_plan() -> "FaultPlan | None":
    """The plan installed for the process, if any."""
    return _active_plan


@contextmanager
def fault_plan(plan: "FaultPlan"):
    """Install ``plan`` for the process for the ``with`` block."""
    global _active_plan
    previous, _active_plan = _active_plan, plan
    try:
        yield plan
    finally:
        _active_plan = previous


def crash_point(name: str) -> None:
    """Fire one crash point; raises :class:`SimulatedCrash` if the
    active plan targets it.  No-op when no plan is installed."""
    plan = active_plan()
    if plan is None:
        return
    if name not in _registry:
        raise FaultError(f"unregistered crash point {name!r}")
    if plan.fires(name):
        raise SimulatedCrash(f"simulated crash at {name!r}")


@dataclass
class FaultPlan:
    """A deterministic, seedable schedule of injected faults.

    One plan describes at most one crash (``crash_at`` names the crash
    point, ``crash_on_hit`` the 1-based occurrence that fires) plus a
    budget of transient read errors.  Counting is per plan instance, so
    a fresh plan replays the identical scenario from the same seed (its
    draws come from disk and WAL I/O, which the engine serializes).
    """

    seed: int = 0
    #: crash point name to crash at (``None`` = never crash)
    crash_at: str | None = None
    #: which occurrence of ``crash_at`` fires the crash (1 = first)
    crash_on_hit: int = 1
    #: how many reads raise :class:`TransientDiskError` before the disk
    #: heals (0 = no read faults)
    transient_read_errors: int = 0
    #: probability each read consumes one unit of the error budget
    transient_read_prob: float = 1.0
    #: per-point hit counts, maintained by :meth:`fires`
    hits: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.crash_at is not None and self.crash_at not in _registry:
            raise FaultError(f"unknown crash point {self.crash_at!r}")
        if self.crash_on_hit < 1:
            raise FaultError(
                f"crash_on_hit must be >= 1, got {self.crash_on_hit}"
            )
        self.rng = random.Random(self.seed)
        self._reads_failed = 0
        self._crashed = False

    # -- crash scheduling --------------------------------------------------

    def fires(self, name: str) -> bool:
        """Record one hit of ``name``; True when the crash triggers.

        One-shot: after the crash has fired once the plan goes inert
        (mirroring a process that is already dead).
        """
        self.hits[name] = self.hits.get(name, 0) + 1
        if self._crashed or name != self.crash_at:
            return False
        if self.hits[name] >= self.crash_on_hit:
            self._crashed = True
            return True
        return False

    @property
    def crashed(self) -> bool:
        """Whether the plan's crash has fired."""
        return self._crashed

    # -- transient faults --------------------------------------------------

    def should_fail_read(self) -> bool:
        """Whether the next read consumes one transient-error unit."""
        if self._reads_failed >= self.transient_read_errors:
            return False
        if self.rng.random() <= self.transient_read_prob:
            self._reads_failed += 1
            return True
        return False

    # -- torn-write geometry -----------------------------------------------

    def torn_cut(self, total: int) -> int:
        """Bytes that survive a torn write of a ``total``-byte buffer."""
        if total <= 1:
            return 0
        return self.rng.randrange(1, total)

    def torn_tail_cut(self, total: int, window: int = WAL_RECORD_OVERHEAD) -> int:
        """A cut landing inside the final ``window`` bytes, so the last
        WAL record of a sync batch is the one that tears."""
        if total <= 1:
            return 0
        return total - self.rng.randrange(1, min(window, total))
