"""The database's decoded-chunk cache, layered over the buffer pool.

The buffer pool caches *pages*; every chunk read still pays the
large-object fetch and the codec decode.  :class:`ChunkCache` keeps the
decoded chunk (:class:`~repro.core.chunking.DecodedChunk`: offsets,
values and the offsets' split halves) per ``(array name, chunk
number)`` in an LRU map so warm consolidations of the same array reuse
it — the layering Rusu & Cheng describe as the standard array-engine
serving architecture.  A warm scan then only gathers and folds:
nothing is decoded, copied or split again.

One per :class:`~repro.relational.catalog.Database`, beside its pool
(``Database.cold_cache`` empties both); a cold measured run reads
around it (``OLAPArray.read_chunk(..., cold=True)``).  A miss calls the
loader its caller passes: the cache never sees an array.

Thread-safety: the map itself is guarded by the
:class:`~repro.obs.memory.SizedStore` lock; a *separate* I/O lock
serializes the loader on a miss (the pool's pin/evict bookkeeping is
single-threaded) with a double-check so a chunk decoded while a reader
waited is not decoded twice.  A record's origin and halves are computed
under the I/O lock, before it is published
(:meth:`~repro.core.chunking.DecodedChunk.share`), so a shared record is
never written after insert; its arrays are read-only.

Byte accounting: an entry's footprint is its three numpy buffers'
``nbytes`` — offsets, values and halves — plus a small fixed overhead,
kept in the store's ledger so the memory accountant's usage callback
is O(1).  A miss insert is the cache's only growth point: it fires the
store's pressure hook *after* the I/O lock is released, never under it.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.obs.histogram import Histogram
from repro.obs.memory import SizedStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.chunking import DecodedChunk

#: per-entry bookkeeping overhead (tuple, dict slots, key) in bytes.
_ENTRY_OVERHEAD = 160


class ChunkCache(SizedStore):
    """LRU cache of decoded chunks, shared across arrays and threads."""

    _evict_counter = "chunk_cache.evictions"
    _pressure_counter = "chunk_cache.pressure_evictions"

    def __init__(self, max_chunks: int = 1024):
        super().__init__(max_chunks)
        #: lookup = whole get_chunk (hit or miss, including I/O-lock
        #: wait); decode = the serialized loader call on a miss.  The
        #: database registers both with its metrics registry.
        self.histograms: dict[str, Histogram] = {
            "chunk_cache.lookup_seconds": Histogram(),
            "chunk_cache.decode_seconds": Histogram(),
        }
        self._io_lock = threading.Lock()

    @staticmethod
    def _chunk_bytes(chunk: "DecodedChunk") -> int:
        return chunk.nbytes + _ENTRY_OVERHEAD

    def get_chunk(
        self, key: tuple[str, int], load: Callable[[], "DecodedChunk"]
    ) -> "DecodedChunk":
        """The decoded chunk under ``key``, from cache or from one
        serialized ``load()`` — the array's uncached read, which bills
        the payload fetch to its caller's bag; a hit bills only
        ``chunk_cache.hits`` here."""
        lookup_start = time.perf_counter()
        chunk = self.get(key)
        missed = False
        if chunk is None:
            with self._io_lock:
                # double-check: another thread may have filled it while
                # we waited for the I/O lock
                chunk = self.get(key)
                if chunk is None:
                    missed = True
                    decode_start = time.perf_counter()
                    chunk = load()
                    chunk.share()
                    self.histograms["chunk_cache.decode_seconds"].observe(
                        time.perf_counter() - decode_start
                    )
                    self.counters.add("chunk_cache.misses")
                    self._put(key, chunk, self._chunk_bytes(chunk))
        if missed:
            self._grew()
        else:
            self.counters.add("chunk_cache.hits")
        self.histograms["chunk_cache.lookup_seconds"].observe(
            time.perf_counter() - lookup_start
        )
        return chunk

    def invalidate_chunk(self, array_name: str, chunk_no: int) -> None:
        """Drop one chunk (called by every cell write and chunk re-encode)."""
        if self.pop((array_name, chunk_no)) is not None:
            self.counters.add("chunk_cache.invalidations")

    def invalidate_array(self, array_name: str) -> None:
        """Drop every chunk of one array (the engine replaced it)."""
        dropped = self.drop_where(lambda key: key[0] == array_name)
        if dropped:
            self.counters.add("chunk_cache.invalidations", dropped)

    def _label(self, key) -> str:
        name, chunk_no = key
        return f"{name}#{chunk_no}"
