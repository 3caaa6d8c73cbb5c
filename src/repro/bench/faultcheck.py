"""Crash-recovery property harness (``python -m repro faultcheck``).

The paper's systems inherited recovery from SHORE and never tested it;
our substrate proves its own.  For every registered crash point the
harness

1. builds a tiny cube on a :class:`~repro.storage.faults.FaultyDisk` +
   file-backed :class:`~repro.storage.faults.FaultyWAL` and checkpoints
   it (the baseline volume image),
2. runs a write workload — each transaction inserts one new cell or
   overwrites a base cell in place, with a value no other write uses — with
   a :class:`~repro.storage.crashpoints.FaultPlan` installed that
   "kills the process" at the crash point under test (a mid-workload
   checkpoint makes the checkpoint path itself crashable),
3. restarts: :meth:`Database.open
   <repro.relational.catalog.Database.open>` loads the checkpoint image
   and replays the WAL (tail-scanning away a torn final record), and
4. asserts the **committed-prefix property**: the surviving cells are
   exactly transactions ``0..k-1`` for some ``k`` at least the number
   of transactions confirmed before the crash (atomicity + durability),
   and every query result — array and star-join backends — equals a
   serial no-crash oracle with exactly those ``k`` transactions applied,
5. **aftershocks**: the recovered process finishes the workload, then
   crashes too, and a third recovery must equal the full-workload
   oracle — proving the survivor's commits never retroactively commit
   records the first crash orphaned past its last commit marker.

Everything is deterministic from the seed, so a failing scenario
replays bit-identically from its ``(crash_point, seed)`` pair.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from repro.errors import SimulatedCrash
from repro.olap.engine import OlapEngine
from repro.olap.model import CubeSchema, DimensionDef, MeasureDef
from repro.olap.query import ConsolidationQuery
from repro.relational.catalog import Database
from repro.storage.crashpoints import (
    FaultPlan,
    fault_plan,
    registered_crash_points,
)
from repro.storage.faults import FaultyDisk, FaultyWAL

CUBE = "crashcube"
N_TXNS = 10
_PAGE_SIZE = 1024
_POOL_BYTES = 1024 * 256
_X_SIZE, _Y_SIZE = 6, 4

#: crash points whose scenario must surface a torn final WAL record
TORN_TAIL_POINTS = ("wal.torn_sync",)

#: points hit often enough to vary *which* occurrence crashes by seed,
#: so the crash lands mid-workload rather than always at transaction 0:
#: point → how many of its first hits to choose from (``lob.write`` only
#: fires when a write creates a chunk, twice in this workload)
_VARIED_HIT_POINTS = {
    "wal.append": 4,
    "wal.commit": 4,
    "wal.sync": 4,
    "lob.write": 2,
    "lob.write_at": 4,
    "pool.flush_page": 4,
    "disk.write": 4,
}


def _crash_on_hit(crash_at: str, seed: int) -> int:
    """Seed-derived 1-based occurrence of ``crash_at`` that crashes."""
    if crash_at not in _VARIED_HIT_POINTS:
        return 1
    # str-seeded Random is stable across processes (unlike hash())
    return 1 + random.Random(f"{seed}:{crash_at}").randrange(
        _VARIED_HIT_POINTS[crash_at]
    )


def _schema() -> CubeSchema:
    return CubeSchema(
        CUBE,
        dimensions=(
            DimensionDef("x", key="xk", levels=(("xg", "str:4"),)),
            DimensionDef("y", key="yk", levels=(("yg", "str:4"),)),
        ),
        measures=(MeasureDef("m", "int64"),),
    )


def _dimension_rows() -> dict[str, list[tuple]]:
    return {
        "x": [(i, f"g{i % 2}") for i in range(_X_SIZE)],
        "y": [(j, f"h{j % 2}") for j in range(_Y_SIZE)],
    }


def _base_facts() -> list[tuple]:
    # base cells live at x=0; only the overwrite transactions touch them
    return [(0, j, (j + 1) * 10) for j in range(_Y_SIZE)]


def _txn_cell(i: int) -> tuple[tuple[int, int], int]:
    """Transaction ``i``'s target cell and its unique measure value.

    Every third transaction overwrites a different base cell (the
    in-place ``lob.write_at`` path); the rest insert new cells at x ≥ 2.
    The value tells a surviving transaction from the cell it replaced.
    """
    if i % 3 == 2 and i // 3 < _Y_SIZE:
        return (0, i // 3), 100 + i
    return (2 + i % 4, i // 4), 100 + i


def _queries() -> list[ConsolidationQuery]:
    full = (
        ConsolidationQuery.builder(CUBE)
        .group_by("x", "xk")
        .group_by("y", "yk")
        .aggregate("m")
        .build()
    )
    rollup = (
        ConsolidationQuery.builder(CUBE)
        .group_by("y", "yg")
        .where_between("x", "xk", low=1)
        .aggregate("m")
        .build()
    )
    return [full, rollup]


def _load(engine: OlapEngine) -> None:
    engine.load_cube(
        _schema(),
        _dimension_rows(),
        _base_facts(),
        chunk_shape=(3, 2),
        backends=("array", "relational"),
        bitmap_attrs=[],
    )


def _query_rows(engine: OlapEngine, backend: str) -> list[list]:
    out = []
    for query in _queries():
        result = engine.query(query, backend=backend, cold=False)
        out.append(sorted(result.rows))
    return out


@dataclass
class CrashOutcome:
    """Result of one crash-recovery scenario."""

    crash_point: str
    seed: int
    crashed: bool
    confirmed: int  # transactions acknowledged before the crash
    recovered: int  # transactions present after recovery (k)
    replayed_pages: int
    torn_tail: bool
    prefix_ok: bool
    durable_ok: bool
    oracle_ok: bool
    aftershock_ok: bool = True
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the scenario upheld the crash-recovery property."""
        return (
            self.prefix_ok
            and self.durable_ok
            and self.oracle_ok
            and self.aftershock_ok
            and not self.errors
        )


def run_crash_scenario(
    crash_at: str, seed: int, workdir: str, n_txns: int = N_TXNS
) -> CrashOutcome:
    """Crash one write workload at ``crash_at``, recover, check the property."""
    waldir = os.path.join(workdir, f"wal-{crash_at.replace('.', '-')}-{seed}")

    # -- phase 1: build + baseline checkpoint (fault-free) -----------------
    disk = FaultyDisk(page_size=_PAGE_SIZE)
    wal = FaultyWAL(waldir, segment_bytes=1 << 16)
    db = Database(pool_bytes=_POOL_BYTES, disk=disk, wal=wal)
    engine = OlapEngine(db)
    _load(engine)
    image_path = db.checkpoint()
    assert image_path is not None

    # -- phase 2: write workload under the fault plan ----------------------
    plan = FaultPlan(
        seed=seed,
        crash_at=crash_at,
        crash_on_hit=_crash_on_hit(crash_at, seed),
    )
    confirmed = 0
    crashed = False
    with fault_plan(plan):
        try:
            for i in range(n_txns):
                if i == n_txns // 2:
                    db.checkpoint()  # mid-workload: crashable itself
                keys, measure = _txn_cell(i)
                engine.write_cell(CUBE, keys, (measure,))
                confirmed += 1
        except SimulatedCrash:
            crashed = True
    # The "process" is dead: the in-memory disk, pool, and WAL mirror are
    # abandoned; only the image + segment files on real disk survive.
    del engine, db, disk

    # -- phase 3: restart + recover ----------------------------------------
    errors: list[str] = []
    db2 = Database.open(
        os.path.join(waldir, "checkpoint.img"),
        wal_dir=waldir,
        pool_bytes=_POOL_BYTES,
    )
    assert db2.wal is not None
    replayed = int(db2.wal.counters.get("wal_pages_replayed"))
    torn_tail = db2.wal.torn_tail_detected
    engine2 = OlapEngine(db2)
    engine2.attach_cube(_schema())

    # -- phase 4: the committed-prefix property -----------------------------
    full_rows = sorted(
        engine2.query(_queries()[0], backend="array", cold=False).rows
    )
    cells = {tuple(row[:2]): row[2] for row in full_rows}
    present = set()
    for i in range(n_txns):
        keys, measure = _txn_cell(i)
        if cells.get(keys) == measure:
            present.add(i)
    k = len(present)
    prefix_ok = present == set(range(k))
    durable_ok = k >= confirmed
    if not prefix_ok:
        errors.append(f"non-prefix survivors: {sorted(present)}")
    if not durable_ok:
        errors.append(f"lost committed transactions: k={k} < {confirmed}")

    # -- phase 5: serial no-crash oracle ------------------------------------
    oracle = OlapEngine(Database(page_size=_PAGE_SIZE, pool_bytes=_POOL_BYTES))
    _load(oracle)
    for i in sorted(present):
        keys, measure = _txn_cell(i)
        oracle.write_cell(CUBE, keys, (measure,))
    oracle_rows = _query_rows(oracle, "array")
    oracle_ok = True
    for backend in ("array", "starjoin"):
        recovered_rows = _query_rows(engine2, backend)
        if recovered_rows != oracle_rows:
            oracle_ok = False
            errors.append(f"backend {backend!r} diverges from oracle")

    # -- phase 6: aftershock — commit after recovery, crash again ------------
    # The survivor finishes the workload (transactions k..n-1), then
    # "crashes" too (abandoned, never closed) and a third process
    # recovers.  This is the double-crash the single-crash phases never
    # reach: the survivor's first commit marker must not retroactively
    # commit records the first crash orphaned, or the second recovery
    # replays an aborted transaction's page images.
    for i in range(k, n_txns):
        keys, measure = _txn_cell(i)
        engine2.write_cell(CUBE, keys, (measure,))
    del engine2, db2
    db3 = Database.open(
        os.path.join(waldir, "checkpoint.img"),
        wal_dir=waldir,
        pool_bytes=_POOL_BYTES,
    )
    engine3 = OlapEngine(db3)
    engine3.attach_cube(_schema())
    for i in range(k, n_txns):
        keys, measure = _txn_cell(i)
        oracle.write_cell(CUBE, keys, (measure,))
    oracle_rows = _query_rows(oracle, "array")
    aftershock_ok = True
    for backend in ("array", "starjoin"):
        if _query_rows(engine3, backend) != oracle_rows:
            aftershock_ok = False
            errors.append(
                f"aftershock: backend {backend!r} diverges from oracle "
                "after commit-then-second-crash"
            )
    db3.close()

    return CrashOutcome(
        crash_point=crash_at,
        seed=seed,
        crashed=crashed,
        confirmed=confirmed,
        recovered=k,
        replayed_pages=replayed,
        torn_tail=torn_tail,
        prefix_ok=prefix_ok,
        durable_ok=durable_ok,
        oracle_ok=oracle_ok,
        aftershock_ok=aftershock_ok,
        errors=errors,
    )


def run_crash_matrix(
    seed: int, workdir: str, points: tuple[str, ...] | None = None
) -> list[CrashOutcome]:
    """Run one scenario per crash point (the full matrix)."""
    if points is None:
        points = registered_crash_points()
    outcomes = []
    for point in points:
        outcome = run_crash_scenario(point, seed, workdir)
        if point in TORN_TAIL_POINTS and not outcome.torn_tail:
            outcome.errors.append(
                "expected a torn final WAL record to be detected"
            )
        outcomes.append(outcome)
    return outcomes
