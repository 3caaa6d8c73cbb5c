"""A shared decoded-chunk cache layered over the buffer pool.

The buffer pool caches *pages*; every chunk read still pays the
large-object fetch and the codec decode.  :class:`ChunkCache` keeps the
decoded ``(offsets, values)`` pair per ``(array name, chunk number)``
in an LRU map so concurrent consolidations of the same array reuse the
decompressed chunk — the layering Rusu & Cheng describe as the standard
array-engine serving architecture.

Thread-safety: the map itself is guarded by one lock; a *separate* I/O
lock serializes the underlying buffer-pool read on a miss (the pool's
pin/evict bookkeeping is single-threaded) with a double-check so a
chunk decoded while a reader waited is not decoded twice.  Cached
arrays are shared — callers must treat them as read-only, which every
in-tree consumer already does.

Byte accounting: an entry's footprint is the two numpy buffers'
``nbytes`` (plus a small fixed overhead), maintained as a running
total so the memory accountant's usage callback is O(1).  A miss
insert is the cache's only growth point, so it fires the optional
``pressure_callback`` — the accountant's budget enforcement hook —
*after* the I/O lock is released, never under it.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.obs.histogram import Histogram
from repro.util.stats import Counters

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.core.olap_array import OLAPArray

_Chunk = "tuple[np.ndarray, np.ndarray]"

#: per-entry bookkeeping overhead (tuple, dict slots, key) in bytes.
_ENTRY_OVERHEAD = 160


class ChunkCache:
    """LRU cache of decoded chunks, shared across arrays and threads."""

    def __init__(self, max_chunks: int = 1024):
        if max_chunks <= 0:
            raise ValueError(f"max_chunks must be positive, got {max_chunks}")
        self.max_chunks = max_chunks
        self.counters = Counters()
        #: lookup = whole get_chunk (hit or miss, including I/O-lock
        #: wait); decode = the serialized disk read + codec decode on a
        #: miss.  Registered by ``QueryService._register_metrics``.
        self.histograms: dict[str, Histogram] = {
            "chunk_cache.lookup_seconds": Histogram(),
            "chunk_cache.decode_seconds": Histogram(),
        }
        #: called after a miss insert grew the cache; the memory
        #: accountant installs its budget check here
        self.pressure_callback: Callable[[], object] | None = None
        self._entries: OrderedDict[tuple[str, int], object] = OrderedDict()
        self._sizes: dict[tuple[str, int], int] = {}
        self._resident_bytes = 0
        self._lock = threading.RLock()
        self._io_lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def _chunk_bytes(chunk) -> int:
        offsets, values = chunk
        return int(offsets.nbytes) + int(values.nbytes) + _ENTRY_OVERHEAD

    def _drop(self, key: tuple[str, int]) -> None:
        # caller holds the lock
        del self._entries[key]
        self._resident_bytes -= self._sizes.pop(key, 0)

    def get_chunk(self, array: "OLAPArray", chunk_no: int, counters=None):
        """The decoded chunk, from cache or via one serialized disk read.

        A miss's payload fetch is billed to ``counters`` (see
        :meth:`OLAPArray.read_chunk <repro.core.olap_array.OLAPArray.
        read_chunk>`); a hit bills only ``chunk_cache.hits`` here.
        """
        key = (array.name, chunk_no)
        lookup_start = time.perf_counter()
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                self.counters.add("chunk_cache.hits")
                self.histograms["chunk_cache.lookup_seconds"].observe(
                    time.perf_counter() - lookup_start
                )
                return hit
        with self._io_lock:
            # double-check: another thread may have filled it while we
            # waited for the I/O lock
            with self._lock:
                hit = self._entries.get(key)
                if hit is not None:
                    self._entries.move_to_end(key)
                    self.counters.add("chunk_cache.hits")
                    self.histograms["chunk_cache.lookup_seconds"].observe(
                        time.perf_counter() - lookup_start
                    )
                    return hit
            decode_start = time.perf_counter()
            chunk = array._read_chunk_direct(chunk_no, counters)
            self.histograms["chunk_cache.decode_seconds"].observe(
                time.perf_counter() - decode_start
            )
            with self._lock:
                self.counters.add("chunk_cache.misses")
                if key in self._entries:
                    self._resident_bytes -= self._sizes.pop(key, 0)
                self._entries[key] = chunk
                self._sizes[key] = self._chunk_bytes(chunk)
                self._resident_bytes += self._sizes[key]
                self._entries.move_to_end(key)
                while len(self._entries) > self.max_chunks:
                    victim = next(iter(self._entries))
                    self._drop(victim)
                    self.counters.add("chunk_cache.evictions")
        # outside both locks: the pressure hook may call right back
        # into reclaim(), which takes the entry lock
        if self.pressure_callback is not None:
            self.pressure_callback()
        self.histograms["chunk_cache.lookup_seconds"].observe(
            time.perf_counter() - lookup_start
        )
        return chunk

    def invalidate_chunk(self, array_name: str, chunk_no: int) -> None:
        """Drop one chunk (called by every cell write and chunk re-encode)."""
        with self._lock:
            key = (array_name, chunk_no)
            if key in self._entries:
                self._drop(key)
                self.counters.add("chunk_cache.invalidations")

    def invalidate_array(self, array_name: str) -> None:
        """Drop every chunk of one array (rebuilds, cold-cache runs)."""
        with self._lock:
            stale = [k for k in self._entries if k[0] == array_name]
            for key in stale:
                self._drop(key)
            if stale:
                self.counters.add("chunk_cache.invalidations", len(stale))

    def clear(self) -> None:
        """Drop everything (no counters: not an invalidation event)."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self._resident_bytes = 0

    # -- memory accounting -------------------------------------------------

    def resident_bytes(self) -> int:
        """Decoded-buffer bytes across every live chunk (O(1))."""
        with self._lock:
            return self._resident_bytes

    def reclaim(self, target_bytes: int) -> int:
        """Evict LRU-first until at most ``target_bytes`` remain.

        Returns bytes freed.  An evicted chunk is re-decoded from the
        buffer pool on next touch — correctness is untouched, only the
        decode cost returns.
        """
        freed = 0
        with self._lock:
            while self._resident_bytes > target_bytes and self._entries:
                victim = next(iter(self._entries))
                freed += self._sizes.get(victim, 0)
                self._drop(victim)
                self.counters.add("chunk_cache.pressure_evictions")
        return freed

    def top_entries(self, n: int = 10) -> list[dict]:
        """The ``n`` largest chunks as ``{"key", "bytes"}`` dicts."""
        with self._lock:
            sized = sorted(
                self._sizes.items(), key=lambda item: item[1], reverse=True
            )
        return [
            {"key": f"{name}#{chunk_no}", "bytes": nbytes}
            for (name, chunk_no), nbytes in sized[:n]
        ]
