"""Fault-injecting wrappers over the storage substrate.

:class:`FaultyDisk` and :class:`FaultyWAL` subclass the real
:class:`~repro.storage.disk.SimulatedDisk` and
:class:`~repro.storage.wal.WriteAheadLog` and consult the active
:class:`~repro.storage.crashpoints.FaultPlan` on every I/O, so a whole
database stack (pool, heap files, LOB store, catalog) runs unmodified on
faulty hardware:

- **torn page writes** — a crash at ``disk.torn_write`` persists only a
  seed-chosen prefix of the page image before the process dies,
- **partial WAL appends** — a crash at ``wal.torn_sync`` fsyncs only a
  prefix of the sync batch, cut inside the *final* record so recovery
  must detect and discard a torn tail,
- **crash-at-Nth-write** — ``disk.write`` / ``wal.sync`` / the
  instrumented interior points (``pool.flush_page``, ``lob.write``, ...)
  with ``crash_on_hit=N``,
- **transient read errors** — a budget of
  :class:`~repro.errors.TransientDiskError` raised before the disk
  "heals", exercising the serving layer's retry loop.

Everything is driven by the plan's seed; no wrapper has randomness of
its own.
"""

from __future__ import annotations

from repro.errors import SimulatedCrash, TransientDiskError
from repro.storage.crashpoints import (
    BUILTIN_CRASH_POINTS,
    FaultPlan,
    active_plan,
    crash_point,
    fault_plan,
    register_crash_point,
    registered_crash_points,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.wal import WriteAheadLog

__all__ = [
    "BUILTIN_CRASH_POINTS",
    "FaultPlan",
    "FaultyDisk",
    "FaultyWAL",
    "active_plan",
    "crash_point",
    "fault_plan",
    "register_crash_point",
    "registered_crash_points",
]


class FaultyDisk(SimulatedDisk):
    """A :class:`SimulatedDisk` whose I/O obeys the active fault plan.

    Reads may raise :class:`TransientDiskError` while the plan's budget
    lasts; writes honour the ``disk.write`` (clean crash before any
    bytes land) and ``disk.torn_write`` (crash with a partial page
    persisted) crash points.
    """

    def _draw_read_faults(self, first: int, n: int) -> None:
        """One transient-error draw per page, in page order, before any
        of the read is accounted or returned."""
        plan = active_plan()
        if plan is None:
            return
        for page_id in range(first, first + n):
            if plan.should_fail_read():
                self.counters.add("transient_read_errors")
                raise TransientDiskError(
                    f"transient read error on page {page_id} (injected)"
                )

    def read_page(self, page_id: int) -> bytes:
        self._draw_read_faults(page_id, 1)
        return super().read_page(page_id)

    def read_run(self, first: int, n: int) -> list[bytes]:
        self._draw_read_faults(first, n)
        return super().read_run(first, n)

    def write_page(self, page_id: int, image: bytes) -> None:
        crash_point("disk.write")
        plan = active_plan()
        if plan is not None and plan.crash_at == "disk.torn_write":
            if plan.fires("disk.torn_write"):
                # Persist a prefix, zero-fill the rest, then "die".
                cut = plan.torn_cut(len(image))
                torn = image[:cut] + bytes(len(image) - cut)
                super().write_page(page_id, torn)
                self.counters.add("torn_page_writes")
                raise SimulatedCrash("simulated crash at 'disk.torn_write'")
        super().write_page(page_id, image)


class FaultyWAL(WriteAheadLog):
    """A :class:`WriteAheadLog` whose sync path obeys the fault plan.

    The ``wal.torn_sync`` crash point persists only a prefix of the
    fsync batch — cut inside the final record's framing, so the tail
    record of the batch is torn exactly the way a real power cut tears
    the last sector of an append.
    """

    def _write_durable(self, data: bytes) -> None:
        plan = active_plan()
        if plan is not None and plan.crash_at == "wal.torn_sync":
            if plan.fires("wal.torn_sync"):
                cut = plan.torn_tail_cut(len(data))
                super()._write_durable(data[:cut])
                self.counters.add("torn_wal_syncs")
                raise SimulatedCrash("simulated crash at 'wal.torn_sync'")
        super()._write_durable(data)
