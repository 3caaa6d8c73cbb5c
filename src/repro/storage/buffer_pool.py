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
A pinned page is never evicted.

Frames: the frame map holds each resident page's image itself, in LRU
order.  A page faulted in by a run read (:meth:`BufferPool.get_run`,
:meth:`BufferPool.get_runs`) is the disk's own immutable ``bytes``
image (a cold scan copies no page and allocates no per-page record);
:meth:`BufferPool.get`, the mutable accessor every writer goes through
before :meth:`BufferPool.mark_dirty`, replaces it in its LRU slot by a
private ``bytearray`` on first use.  Everything else reads a frame
through ``bytes(image)`` and cannot tell the two apart.  The few pinned
or dirty pages are two small side tables, page → pin count and page →
whether its after-image is logged; a page in neither is clean and
unpinned, and each table's length is its count, so a clear, flush or
commit scans the frames only when a page of its kind exists.

Recovery integration: when constructed with a
:class:`~repro.storage.wal.WriteAheadLog`, the pool runs a **no-steal /
redo-only** protocol — dirty frames are not evictable until
:meth:`commit` logs their after-images; a simulated :meth:`crash` drops
all frames, and WAL replay restores every committed write.
"""

from __future__ import annotations

import time
from collections import OrderedDict

from repro.errors import BufferPoolError, PageError
from repro.obs.histogram import Histogram
from repro.storage.crashpoints import crash_point
from repro.storage.disk import SimulatedDisk
from repro.storage.wal import WriteAheadLog
from repro.util.stats import Counters

DEFAULT_POOL_BYTES = 16 * 1024 * 1024


#: per-frame bookkeeping bytes charged beyond the page image itself: the
#: image's object header and the frame map's linked slot, rounded up to
#: price a pool of private copies (a shared run-read image costs less).
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
        #: page -> image (``bytes`` shared with the disk, else private)
        self._frames: OrderedDict[int, bytes | bytearray] = OrderedDict()
        #: pinned page -> pin count (> 0)
        self._pins: dict[int, int] = {}
        #: dirty page -> whether its after-image is logged
        self._dirty: dict[int, bool] = {}

    # -- core access --------------------------------------------------------

    def get(self, page_id: int) -> bytearray:
        """Return the in-pool buffer for ``page_id``, faulting it in.

        The returned bytearray is the live frame: mutate it and call
        :meth:`mark_dirty` to persist, but do not hold it across other
        pool calls without :meth:`pin`.
        """
        frames = self._frames
        data = frames.get(page_id)
        if data is not None:
            frames.move_to_end(page_id)
            self.counters.add("pool_hits")
            if type(data) is bytes:  # faulted in by a run read
                data = frames[page_id] = bytearray(data)
            return data
        self.counters.add("pool_misses")
        self._make_room()
        data = frames[page_id] = bytearray(self.disk.read_page(page_id))
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
            frames.update(zip(pages, images))
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
                    frames.update(zip(range(start, stop), images))
                start = stop + 1
        for page_id in pages:
            frames.move_to_end(page_id)
        return [frames[page_id] for page_id in pages]

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
        between_image = frames.get(between)
        if (
            not adjacent
            or between_image is None
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
        frames.update(zip(range(first, last), images))
        frames.move_to_end(between)
        if type(between_image) is bytes:  # as get() leaves it
            frames[between] = bytearray(between_image)
        frames.update(zip(range(last, stop), images[last - first :]))
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
        self._frames[first] = bytearray(self.disk.page_size)
        self._dirty[first] = False
        return first

    def mark_dirty(self, page_id: int) -> None:
        """Record that the frame for ``page_id`` was modified."""
        if page_id not in self._frames:
            raise BufferPoolError(
                f"mark_dirty on page {page_id} which is not resident"
            )
        self._dirty[page_id] = False

    def write(self, page_id: int, image: bytes) -> None:
        """Replace the whole page image (faulting the frame in if needed)."""
        if len(image) != self.disk.page_size:
            raise PageError(
                f"page image is {len(image)} bytes, page size is "
                f"{self.disk.page_size}"
            )
        frames = self._frames
        data = frames.get(page_id)
        if data is None:
            self._make_room()
            frames[page_id] = bytearray(image)
        else:
            if type(data) is bytes:
                frames[page_id] = bytearray(image)
            else:
                data[:] = image
            frames.move_to_end(page_id)
        self._dirty[page_id] = False

    # -- pinning --------------------------------------------------------------

    def pin(self, page_id: int) -> bytearray:
        """Fault in and pin a page; pinned frames are never evicted."""
        data = self.get(page_id)
        self._pins[page_id] = self._pins.get(page_id, 0) + 1
        return data

    def unpin(self, page_id: int) -> None:
        """Release one pin on ``page_id``."""
        count = self._pins.get(page_id)
        if count is None:
            raise BufferPoolError(f"unpin of page {page_id} not pinned")
        if count > 1:
            self._pins[page_id] = count - 1
        else:
            del self._pins[page_id]

    # -- eviction / flushing -----------------------------------------------------

    def _evictable(self, page_id: int) -> bool:
        if page_id in self._pins:
            return False
        if self.wal is not None and self._dirty.get(page_id) is False:
            return False  # no-steal: unlogged dirty pages stay resident
        return True

    def _make_room(self) -> None:
        while len(self._frames) >= self.capacity_frames:
            start = time.perf_counter()
            victim_id = None
            for page_id in self._frames:  # LRU order
                if self._evictable(page_id):
                    victim_id = page_id
                    break
            if victim_id is None:
                raise BufferPoolError(
                    "no evictable frame: all pages pinned or dirty-unlogged "
                    "(call commit() when running with a WAL)"
                )
            data = self._frames.pop(victim_id)
            if self._dirty.pop(victim_id, None) is not None:
                self.counters.add("pool_evict_dirty")
                crash_point("pool.flush_page")
                self.disk.write_page(victim_id, bytes(data))
            else:
                self.counters.add("pool_evict_clean")
            self.histograms["pool.evict_seconds"].observe(
                time.perf_counter() - start
            )

    def flush_all(self) -> None:
        """Write every dirty frame to disk (frames stay resident)."""
        if self.wal is not None:
            self.commit()
        dirty = self._dirty
        if not dirty:
            return
        for page_id, data in self._frames.items():  # LRU order
            if page_id in dirty:
                crash_point("pool.flush_page")
                self.disk.write_page(page_id, bytes(data))
                del dirty[page_id]

    def clear(self) -> None:
        """Flush everything and drop all frames (the cold-cache reset).

        A clean pool with no page pinned drops its frames unscanned."""
        if self._pins:
            pinned = [pid for pid in self._frames if pid in self._pins]
            raise BufferPoolError(f"cannot clear pool: pages {pinned} pinned")
        self.flush_all()
        self._drop_frames()

    # -- transactions (redo-only WAL) ------------------------------------------

    def commit(self) -> None:
        """Log after-images of all unlogged dirty frames, then a COMMIT."""
        dirty = self._dirty
        if self.wal is None or all(dirty.values()):
            return
        for page_id, data in self._frames.items():  # LRU order
            if dirty.get(page_id) is False:
                self.wal.log_page(page_id, bytes(data))
                dirty[page_id] = True
        self.wal.log_commit()

    def crash(self) -> None:
        """Simulate a crash: every frame is lost, nothing is flushed."""
        self._drop_frames()

    def _drop_frames(self) -> None:
        self._frames.clear()
        self._pins.clear()
        self._dirty.clear()

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
