"""Fixed-capacity LRU buffer pool over a :class:`SimulatedDisk`.

The pool mirrors the paper's Paradise configuration: a 16 MB pool over
8 KiB pages (2048 frames) by default.  Queries run *cold* — the harness
calls :meth:`BufferPool.clear` before each measured run, as the paper
flushed both the Unix file-system cache and the Paradise pool.

Concurrency notes: the pool takes no lock and no latch of its own; its
callers serialise access.  Warm chunk reads — every service miss and
every ``thread`` shard scan — go through the database's
:class:`~repro.storage.chunk_cache.ChunkCache`, whose I/O lock admits
one pool reader at a time; writers hold the cube's exclusive lock.
Frames carry pin counts for correctness of eviction (a pinned frame is
never evicted).

Frame states: a frame faulted in by a run read (:meth:`BufferPool.get_run`,
:meth:`BufferPool.get_runs`) holds the disk's own immutable ``bytes``
image (a cold scan copies no page);
:meth:`BufferPool.get`, the mutable accessor every writer goes through
before :meth:`BufferPool.mark_dirty`, replaces it by a private
``bytearray`` on first use.  Everything else reads a frame through
``bytes(frame.data)`` and cannot tell the two apart.

Recovery integration: when constructed with a
:class:`~repro.storage.wal.WriteAheadLog`, the pool runs a **no-steal /
redo-only** protocol — dirty frames are not evictable until
:meth:`commit` logs their after-images; a simulated :meth:`crash` drops
all frames, and WAL replay restores every committed write.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import BufferPoolError, PageError
from repro.obs.histogram import Histogram
from repro.storage.crashpoints import crash_point
from repro.storage.disk import SimulatedDisk
from repro.storage.wal import WriteAheadLog
from repro.util.stats import Counters

DEFAULT_POOL_BYTES = 16 * 1024 * 1024


@dataclass(slots=True)
class _Frame:
    data: bytes | bytearray  # bytes: clean and shared with the disk
    dirty: bool = False
    pin_count: int = 0
    logged: bool = field(default=True, repr=False)


#: per-frame bookkeeping bytes beyond the page image itself (the
#: ``_Frame`` object, its ``bytearray`` header, the OrderedDict slot).
_FRAME_OVERHEAD = 160


class BufferPool:
    """LRU page cache with pin counts, dirty tracking and statistics."""

    def __init__(
        self,
        disk: SimulatedDisk,
        capacity_bytes: int = DEFAULT_POOL_BYTES,
        wal: WriteAheadLog | None = None,
    ):
        self.disk = disk
        self.capacity_frames = max(1, capacity_bytes // disk.page_size)
        self.wal = wal
        self.counters = Counters()
        #: eviction latency (victim scan + dirty write-back); registered
        #: into the database's MetricsRegistry by ``_build_metrics``
        self.histograms: dict[str, Histogram] = {
            "pool.evict_seconds": Histogram(),
        }
        self._frames: OrderedDict[int, _Frame] = OrderedDict()
        #: how many frames are pinned, and how many dirty: a clear, flush
        #: or commit scans the frames only when one of its kind is
        self._pinned = 0
        self._dirty = 0

    # -- core access --------------------------------------------------------

    def get(self, page_id: int) -> bytearray:
        """Return the in-pool buffer for ``page_id``, faulting it in.

        The returned bytearray is the live frame: mutate it and call
        :meth:`mark_dirty` to persist, but do not hold it across other
        pool calls without :meth:`pin`.
        """
        frame = self._frames.get(page_id)
        if frame is not None:
            self._frames.move_to_end(page_id)
            self.counters.add("pool_hits")
            if type(frame.data) is bytes:  # faulted in by a run read
                frame.data = bytearray(frame.data)
            return frame.data
        self.counters.add("pool_misses")
        self._make_room()
        data = bytearray(self.disk.read_page(page_id))
        self._frames[page_id] = _Frame(data)
        return data

    def get_run(self, first: int, n: int) -> list[bytes | bytearray]:
        """Read-only buffers of ``n`` consecutive pages, as a new list.

        Defined as ``[get(first + i) for i in range(n)]``: the same
        hits and misses, LRU order and disk reads in the same order.
        When the missing pages fit without evicting anything it gets
        there with one residency scan, one :meth:`SimulatedDisk.read_run`
        per maximal missing sub-run and one counter update, and the new
        frames share the disk's images; otherwise it is that loop.  A
        run with no page resident is one ``read_run``, one frame-map
        update and one counter add.
        """
        frames = self._frames
        pages = range(first, first + n)
        if (
            n > 0
            and len(frames) + n <= self.capacity_frames
            and frames.keys().isdisjoint(pages)
        ):
            images = self.disk.read_run(first, n)
            frames.update(zip(pages, map(_Frame, images)))
            self.counters.add("pool_misses", n)
            return images
        resident = [page_id for page_id in pages if page_id in frames]
        missing = n - len(resident)
        if len(frames) + missing > self.capacity_frames:
            return [self.get(page_id) for page_id in pages]
        self.counters.add_many(
            {"pool_hits": len(resident), "pool_misses": missing}
        )
        if missing:
            start = first
            for stop in (*resident, first + n):  # ends a missing sub-run
                if stop > start:
                    images = self.disk.read_run(start, stop - start)
                    for page_id, image in enumerate(images, start):
                        frames[page_id] = _Frame(image)
                start = stop + 1
        for page_id in pages:
            frames.move_to_end(page_id)
        return [frames[page_id].data for page_id in pages]

    def get_runs(
        self, runs: list[tuple[int, int]], between: int
    ) -> list[bytes | bytearray]:
        """Read-only buffers of several runs' pages, as one new list.

        Defined as the loop ``get_run(*runs[0])``, then ``get(between)``
        and ``get_run(*run)`` for each further run, flattened: a large
        object store's read of objects whose directory entries share the
        page ``between``, which it has just read for the first entry.
        When the runs are adjacent (each starts where the one before
        ends), no page of them is resident, ``between`` is, and they fit
        without evicting anything, the loop's per-page work is provably
        idle but for its accounting: this is one
        :meth:`SimulatedDisk.read_run` over the union, one frame-map
        update per side of ``between`` and one counter add, with
        ``between`` left just before the last run's pages as the loop
        leaves it.  Otherwise it is that loop.
        """
        if len(runs) == 1:
            return self.get_run(*runs[0])
        frames = self._frames
        first = stop = runs[0][0]
        adjacent = True
        for start, n in runs:
            adjacent = adjacent and start == stop
            stop = start + n
        total = stop - first
        pages = range(first, stop)
        frame = frames.get(between)
        if (
            not adjacent
            or frame is None
            or len(frames) + total > self.capacity_frames
            or not frames.keys().isdisjoint(pages)
        ):
            buffers = self.get_run(*runs[0])
            for run in runs[1:]:
                self.get(between)
                buffers += self.get_run(*run)
            return buffers
        images = self.disk.read_run(first, total)
        last = runs[-1][0]
        frames.update(zip(range(first, last), map(_Frame, images)))
        frames.move_to_end(between)
        if type(frame.data) is bytes:  # as get() leaves it
            frame.data = bytearray(frame.data)
        frames.update(zip(range(last, stop), map(_Frame, images[last - first :])))
        self.counters.add_many(
            {"pool_hits": len(runs) - 1, "pool_misses": total}
        )
        return images

    def new_page(self, count: int = 1) -> int:
        """Allocate ``count`` fresh zeroed pages; return the first id.

        The first page is installed dirty in the pool without a disk
        read; callers typically write it immediately.
        """
        first = self.disk.allocate(count)
        self._make_room()
        self._frames[first] = _Frame(
            bytearray(self.disk.page_size), dirty=True, logged=False
        )
        self._dirty += 1
        return first

    def mark_dirty(self, page_id: int) -> None:
        """Record that the frame for ``page_id`` was modified."""
        frame = self._frames.get(page_id)
        if frame is None:
            raise BufferPoolError(
                f"mark_dirty on page {page_id} which is not resident"
            )
        if not frame.dirty:
            self._dirty += 1
        frame.dirty = True
        frame.logged = False

    def write(self, page_id: int, image: bytes) -> None:
        """Replace the whole page image (faulting the frame in if needed)."""
        if len(image) != self.disk.page_size:
            raise PageError(
                f"page image is {len(image)} bytes, page size is "
                f"{self.disk.page_size}"
            )
        frame = self._frames.get(page_id)
        if frame is None:
            self._make_room()
            frame = _Frame(bytearray(image), dirty=True, logged=False)
            self._frames[page_id] = frame
            self._dirty += 1
        else:
            if type(frame.data) is bytes:
                frame.data = bytearray(image)
            else:
                frame.data[:] = image
            if not frame.dirty:
                self._dirty += 1
            frame.dirty = True
            frame.logged = False
            self._frames.move_to_end(page_id)

    # -- pinning --------------------------------------------------------------

    def pin(self, page_id: int) -> bytearray:
        """Fault in and pin a page; pinned frames are never evicted."""
        data = self.get(page_id)
        frame = self._frames[page_id]
        if not frame.pin_count:
            self._pinned += 1
        frame.pin_count += 1
        return data

    def unpin(self, page_id: int) -> None:
        """Release one pin on ``page_id``."""
        frame = self._frames.get(page_id)
        if frame is None or frame.pin_count <= 0:
            raise BufferPoolError(f"unpin of page {page_id} not pinned")
        frame.pin_count -= 1
        if not frame.pin_count:
            self._pinned -= 1

    # -- eviction / flushing -----------------------------------------------------

    def _evictable(self, frame: _Frame) -> bool:
        if frame.pin_count > 0:
            return False
        if self.wal is not None and frame.dirty and not frame.logged:
            return False  # no-steal: unlogged dirty pages stay resident
        return True

    def _make_room(self) -> None:
        while len(self._frames) >= self.capacity_frames:
            start = time.perf_counter()
            victim_id = None
            for page_id, frame in self._frames.items():  # LRU order
                if self._evictable(frame):
                    victim_id = page_id
                    break
            if victim_id is None:
                raise BufferPoolError(
                    "no evictable frame: all pages pinned or dirty-unlogged "
                    "(call commit() when running with a WAL)"
                )
            frame = self._frames.pop(victim_id)
            if frame.dirty:
                self._dirty -= 1
                self.counters.add("pool_evict_dirty")
                crash_point("pool.flush_page")
                self.disk.write_page(victim_id, bytes(frame.data))
            else:
                self.counters.add("pool_evict_clean")
            self.histograms["pool.evict_seconds"].observe(
                time.perf_counter() - start
            )

    def flush_all(self) -> None:
        """Write every dirty frame to disk (frames stay resident)."""
        if self.wal is not None:
            self.commit()
        if not self._dirty:
            return
        for page_id, frame in self._frames.items():
            if frame.dirty:
                crash_point("pool.flush_page")
                self.disk.write_page(page_id, bytes(frame.data))
                frame.dirty = False
                self._dirty -= 1

    def clear(self) -> None:
        """Flush everything and drop all frames (the cold-cache reset).

        A clean pool with no page pinned drops its frames unscanned."""
        if self._pinned:
            pinned = [pid for pid, f in self._frames.items() if f.pin_count > 0]
            if pinned:
                raise BufferPoolError(f"cannot clear pool: pages {pinned} pinned")
        self.flush_all()
        self._drop_frames()

    # -- transactions (redo-only WAL) ------------------------------------------

    def commit(self) -> None:
        """Log after-images of all unlogged dirty frames, then a COMMIT."""
        if self.wal is None or not self._dirty:
            return
        logged_any = False
        for page_id, frame in self._frames.items():
            if frame.dirty and not frame.logged:
                self.wal.log_page(page_id, bytes(frame.data))
                frame.logged = True
                logged_any = True
        if logged_any:
            self.wal.log_commit()

    def crash(self) -> None:
        """Simulate a crash: every frame is lost, nothing is flushed."""
        self._drop_frames()

    def _drop_frames(self) -> None:
        self._frames.clear()
        self._pinned = self._dirty = 0

    # -- statistics ------------------------------------------------------------

    def resident_pages(self) -> int:
        """Number of frames currently cached."""
        return len(self._frames)

    def resident_bytes(self) -> int:
        """Bytes held by cached frames: pages plus per-frame bookkeeping.

        O(1) — frames are uniformly ``page_size`` bytes, so the memory
        accountant can sample this from another thread without
        iterating (and racing) the frame map.
        """
        return self.resident_pages() * (self.disk.page_size + _FRAME_OVERHEAD)

    def hit_rate(self) -> float:
        """Fraction of page requests served from the pool over the
        pool's lifetime (0.0 if none)."""
        hits = self.counters.get("pool_hits")
        total = hits + self.counters.get("pool_misses")
        return hits / total if total else 0.0
