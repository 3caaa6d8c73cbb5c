"""The per-shard scan task: one chunk range → one partial accumulator.

Two entry points run the *same* §4.1 scan — the one chunk walk over the
task's sub-range (:func:`repro.core.consolidate.scan_chunk_range`),
billed to a counter bag private to the task:

- :func:`run_inline_task` executes against live objects in the
  coordinator's process (the ``local`` and ``thread`` executors) and
  hands back the accumulator itself;
- :func:`run_shard_task` is the picklable process-executor task.  Each
  worker process opens its *own* database from the coordinator's volume
  image — own :class:`~repro.storage.buffer_pool.BufferPool`, own
  simulated disk, own WAL segment directory — and ships the partial
  aggregate back as an :meth:`export_state
  <repro.core.consolidate.ResultAccumulator.export_state>` payload plus
  the per-shard counters (chunk reads, cell scans, pool hit/miss and
  simulated I/O deltas) the coordinator folds into the query's metrics.

Databases are cached per ``(process, image path)``: a shard scan is
usually one of many against the same cube generation, so reopening the
image for every task would turn the buffer pool into a cold start each
time.  A new image path (new generation) evicts the old entry.
"""

from __future__ import annotations

import os

from repro.core.consolidate import (
    ConsolidationSpec,
    ResultAccumulator,
    scan_chunk_range,
)
from repro.errors import QueryError, TransientDiskError
from repro.util.stats import Counters, counter_delta

#: per-process cache: image_path -> (Database, {array_name: OLAPArray})
_WORKER_STATE: dict = {}

#: what a worker process's own pool and disk spent on a task, shipped
#: beside the scan's bag (an inline task shares the parent's)
_STORAGE_KEYS = ("pool_hits", "pool_misses", "sim_io_s")


def _maybe_fail(task: dict) -> None:
    """Crash-injection hook: fail exactly once per marker file.

    The marker is removed *before* raising, so only the first worker to
    see it fails — the coordinator's re-scatter then succeeds.  Using
    the filesystem makes the injection visible across process
    boundaries, which in-memory monkeypatching cannot be.
    """
    marker = task.get("fail_marker")
    if marker and os.path.exists(marker):
        try:
            os.remove(marker)
        except FileNotFoundError:
            return  # another attempt consumed the failure
        raise TransientDiskError(
            f"injected shard worker failure (shard {task.get('shard')})"
        )


def build_specs(pairs: list[tuple[str, str | None]]) -> list[ConsolidationSpec]:
    """Rebuild ConsolidationSpecs from their picklable (kind, attr) form."""
    specs = []
    for kind, attr in pairs:
        if kind == "level":
            specs.append(ConsolidationSpec.level(attr))
        elif kind == "key":
            specs.append(ConsolidationSpec.key())
        elif kind == "drop":
            specs.append(ConsolidationSpec.drop())
        else:
            # "mapping" carries a live IndexToIndex — coordinator-side only
            raise QueryError(
                f"spec kind {kind!r} cannot cross a process boundary"
            )
    return specs


def run_inline_task(task: dict) -> dict:
    """Scan one chunk range in-process (``local``/``thread`` executors)."""
    _maybe_fail(task)
    counters = Counters()
    accumulator = ResultAccumulator(
        task["array"], task["specs"], task["aggregate"], counters
    )
    scan_chunk_range(
        task["array"],
        accumulator,
        range(task["start"], task["stop"]),
        allowed=task.get("allowed"),
        counters=counters,
        cold=task["cold"],
    )
    return {
        "shard": task["shard"],
        "accumulator": accumulator,
        "counters": counters.snapshot(),
    }


def _open_worker_db(task: dict):
    """Open (or reuse) this process's database for the task's image."""
    from repro.core.olap_array import OLAPArray
    from repro.relational.catalog import Database

    image_path = task["image_path"]
    if image_path not in _WORKER_STATE:
        # a new image means a new cube generation; drop stale handles so
        # the pool does not keep frames of a volume nobody will query
        for db, _arrays in _WORKER_STATE.values():
            db.close()
        _WORKER_STATE.clear()
        wal_dir = None
        if task.get("wal_base"):
            wal_dir = os.path.join(
                task["wal_base"], f"worker-{os.getpid()}"
            )
            os.makedirs(wal_dir, exist_ok=True)
        db = Database.open(
            image_path,
            wal_dir=wal_dir,
            pool_bytes=task["pool_bytes"],
            disk_model=task.get("disk_model"),
        )
        _WORKER_STATE[image_path] = (db, {})
    db, arrays = _WORKER_STATE[image_path]
    name = task["array_name"]
    if name not in arrays:
        arrays[name] = OLAPArray.open(db.fm, name)
        db.metrics.register(f"array:{name}", arrays[name].counters)
    return db, arrays[name]


def run_shard_task(task: dict) -> dict:
    """Scan one chunk range in a worker process; return a picklable dict.

    The returned ``counters`` are what this task spent: the scan's own
    bag plus the *deltas* of the worker's pool and disk over the task
    (its database is long-lived), so the coordinator can attribute pool
    hit rates and simulated I/O to individual shards.
    """
    _maybe_fail(task)
    db, array = _open_worker_db(task)
    before = db.metrics.snapshot_by_source()
    counters = Counters()
    accumulator = ResultAccumulator(
        array, build_specs(task["specs"]), task["aggregate"], counters
    )
    scan_chunk_range(
        array,
        accumulator,
        range(task["start"], task["stop"]),
        allowed=task.get("allowed"),
        counters=counters,
    )
    deltas = counters.snapshot()
    moved = counter_delta(before, db.metrics.snapshot_by_source())
    deltas.update(
        (key, moved[key]) for key in _STORAGE_KEYS if key in moved
    )
    return {
        "shard": task["shard"],
        "state": accumulator.export_state(),
        "counters": deltas,
    }
