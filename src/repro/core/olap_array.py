"""The OLAP Array ADT (§3).

An :class:`OLAPArray` bundles, all on storage pages:

- the chunked, compressed n-dimensional array (chunk payloads in a
  large-object store, one object per non-empty chunk);
- the §3.3 chunk meta directory (OID + length per chunk);
- one B-tree per dimension mapping dimension keys → array indices;
- B-trees on dimension *attributes* (attribute value → array-index
  lists), the "join index" structures §4.2 probes;
- §3.4 IndexToIndex arrays, one per hierarchy level, in an aux
  large-object store together with reverse key lists and the array's
  metadata blob.

ADT functions (the §3.5 function set): cell read/write, region
summation, slicing, and — in their own modules — consolidation and
consolidation with selection.

Every operator that visits chunks does so through one walk,
:meth:`OLAPArray.walk`: chunks in physical order as
:class:`~repro.core.chunking.DecodedChunk` records, the ones a
selection cannot touch skipped unread, each read billed to the caller's
counter bag.  Reads nobody owns (a bare :meth:`OLAPArray.get_cell`, the
read-modify-write of :meth:`OLAPArray.write_cell`) fall to the array's
own :attr:`OLAPArray.counters`, a lifetime bag that is never emptied.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator

import numpy as np

from repro.core.chunking import ChunkGeometry, ComposedTables, DecodedChunk
from repro.core.compression import decode_chunk, get_codec, payload_lead
from repro.core.dimension_index import DimensionIndex
from repro.core.index_to_index import IndexToIndex
from repro.core.meta import NO_CHUNK, ChunkDirectory
from repro.errors import ArrayError, DimensionError
from repro.index.btree import BTree
from repro.obs.tracer import get_tracer
from repro.storage.large_object import LargeObjectStore
from repro.storage.page_file import FileManager
from repro.util.stats import Counters


class OLAPArray:
    """A chunked, compressed multi-dimensional array with OLAP indices."""

    def __init__(
        self, fm: FileManager, name: str, meta: dict,
        entries: list[tuple[int, int, int]] | None = None,
    ):
        self.fm = fm
        self.name = name
        self.geometry = ChunkGeometry(
            tuple(meta["shape"]), tuple(meta["chunk_shape"])
        )
        self.dtype = meta["dtype"]
        self.n_measures = meta["n_measures"]
        self.measure_names = list(meta["measure_names"])
        self.codec_name = meta["codec"]
        self.dim_names = [d["name"] for d in meta["dims"]]
        self._meta = meta
        self.chunks = LargeObjectStore(fm, f"{name}.chunks")
        self.aux = LargeObjectStore(fm, f"{name}.aux")
        self.directory = ChunkDirectory.open(fm, f"{name}.dir")
        self.counters = Counters()
        self.dims = [
            DimensionIndex.open(
                fm, self.aux, f"{name}.dim{i}.key", d["rev_oid"]
            )
            for i, d in enumerate(meta["dims"])
        ]
        self._np_dtype = np.int64 if self.dtype == "int64" else np.float64
        self._i2i_cache: dict[tuple[int, str], IndexToIndex] = {}
        self._attr_tree_cache: dict[tuple[int, str], BTree] = {}
        self._dir_cache: list[tuple[int, int, int]] | None = None
        #: the planner's copy of the directory (:meth:`chunk_directory`):
        #: a build's own ``entries``, else the last load's
        self._catalog = None if entries is None else np.array(entries).reshape(-1, 3)
        #: the database's decoded-chunk cache, set by the engine serving
        #: this array: warm reads go through it, which makes concurrent
        #: readers safe (its I/O lock serializes the page reads)
        self.chunk_cache = None

    def _bag(self, counters: Counters | None) -> Counters:
        """Who pays for a read: the caller's bag, else the array's own."""
        return self.counters if counters is None else counters

    def _entries(
        self, counters: Counters | None = None
    ) -> list[tuple[int, int, int]]:
        """Chunk meta entries, loaded once sequentially and cached."""
        if self._dir_cache is None:
            with get_tracer().span("chunk_directory_load", array=self.name):
                self._dir_cache = self.directory.load_all()
            self._catalog = np.array(self._dir_cache).reshape(-1, 3)
            self._bag(counters).add("dir_loads")
        return self._dir_cache

    def chunk_directory(self) -> np.ndarray:
        """The chunk meta directory as the planner reads it, one ``(oid,
        length, valid cells)`` row per chunk: kept by every chunk write
        and left resident by :meth:`invalidate_caches`, so a plan reads
        no page while a cold walk still pays its own directory read."""
        if self._catalog is None:
            self._entries()
        return self._catalog

    def invalidate_caches(self) -> None:
        """Forget in-memory copies of on-disk metadata.

        Called at cold-cache query boundaries so each measured query
        pays for (one sequential) re-read of the chunk meta directory
        and the IndexToIndex arrays, as the paper's runs did.
        """
        self._dir_cache = None
        self._i2i_cache.clear()

    # -- opening ----------------------------------------------------------------

    @classmethod
    def open(cls, fm: FileManager, name: str) -> "OLAPArray":
        """Open a previously built array by name."""
        directory = ChunkDirectory.open(fm, f"{name}.dir")
        aux = LargeObjectStore(fm, f"{name}.aux")
        oid = directory.array_meta_oid
        if oid == NO_CHUNK:
            raise ArrayError(f"array {name!r} has no metadata blob")
        meta = json.loads(aux.read(oid).decode("utf-8"))
        return cls(fm, name, meta)

    # -- dimension helpers ------------------------------------------------------------

    def dim_no(self, dim: int | str) -> int:
        """Dimension position from a name or a position."""
        if isinstance(dim, int):
            if not 0 <= dim < self.geometry.ndim:
                raise DimensionError(
                    f"dimension {dim} out of range [0, {self.geometry.ndim})"
                )
            return dim
        try:
            return self.dim_names.index(dim)
        except ValueError:
            raise DimensionError(
                f"no dimension named {dim!r}; have {self.dim_names}"
            ) from None

    def hierarchy_attrs(self, dim: int | str) -> list[str]:
        """The hierarchy attribute names of one dimension, in order."""
        return list(self._meta["dims"][self.dim_no(dim)]["attrs"])

    def attribute_index(self, dim: int | str, attr: str) -> BTree:
        """B-tree: attribute value → array-index list (§4.2's join index)."""
        d = self.dim_no(dim)
        cached = self._attr_tree_cache.get((d, attr))
        if cached is None:
            if attr not in self._meta["dims"][d]["attrs"]:
                raise DimensionError(
                    f"dimension {self.dim_names[d]!r} has no attribute "
                    f"{attr!r}; have {self.hierarchy_attrs(d)}"
                )
            cached = BTree.open(self.fm, f"{self.name}.dim{d}.{attr}.idx")
            self._attr_tree_cache[(d, attr)] = cached
        return cached

    def index_to_index(
        self, dim: int | str, attr: str, counters: Counters | None = None
    ) -> IndexToIndex:
        """The §3.4 IndexToIndex array for one hierarchy level."""
        d = self.dim_no(dim)
        cached = self._i2i_cache.get((d, attr))
        if cached is None:
            info = self._meta["dims"][d]["attrs"].get(attr)
            if info is None:
                raise DimensionError(
                    f"dimension {self.dim_names[d]!r} has no attribute "
                    f"{attr!r}; have {self.hierarchy_attrs(d)}"
                )
            with get_tracer().span(
                "i2i_load", dim=self.dim_names[d], attr=attr
            ):
                cached = IndexToIndex.from_blob(self.aux.read(info["i2i_oid"]))
            self._bag(counters).add("i2i_loads")
            self._i2i_cache[(d, attr)] = cached
        return cached

    # -- chunk access -------------------------------------------------------------------

    def read_chunk(
        self, chunk_no: int, counters: Counters | None = None, cold: bool = False
    ) -> DecodedChunk:
        """Decode one chunk: its record of sorted offsets, ``(count, p)``
        values, origin and (split on first use) offset halves.

        Empty chunks return empty arrays without touching the disk
        (the §4.2 skip optimization relies on this).  The arrays are
        read-only; a warm read through the :attr:`chunk_cache` returns
        the one shared record, already split.  A ``cold`` read (a
        measured cold run) goes around the cache: no lookup, no fill.
        ``counters`` is the bag a payload fetch is billed to (default:
        the array's own); a cache hit fetches nothing and bills nothing.
        """
        cache = self.chunk_cache
        if cache is None or cold:
            return next(self._read_run([chunk_no], counters))
        return cache.get_chunk(
            (self.name, chunk_no),
            lambda: next(self._read_run([chunk_no], counters)),
        )

    def _read_run(
        self, chunk_nos, counters: Counters | None = None
    ) -> Iterator[DecodedChunk]:
        """The one uncached read path: ``chunk_nos``' records in order.

        The large-object store fetches each maximal run of their
        payloads — consecutive objects, physically adjacent, fitting the
        pool — with one pool call (:meth:`LargeObjectStore.read_many
        <repro.storage.large_object.LargeObjectStore.read_many>`), each
        joined behind the lead that lets the decode view it in place.
        Chunks are joined and decoded one at a time as they are asked
        for, so one payload is alive at a time.  The payloads fetched
        are billed (``chunks_read``, ``chunk_bytes_read``) once, when
        the reader is exhausted or closed: a walk abandoned part-way
        pays for exactly the payloads it fetched.
        """
        if not len(chunk_nos):
            return  # reads nothing, the directory included
        counters = self._bag(counters)
        entries = self._entries(counters)
        stored = [entries[chunk_no] for chunk_no in chunk_nos]
        read = [(oid, count) for oid, _, count in stored if oid != NO_CHUNK and count]
        payloads = self.chunks.read_many(
            [oid for oid, _ in read], [payload_lead(count) for _, count in read]
        )
        fetched = fetched_bytes = 0
        try:
            for chunk_no, (oid, _, count) in zip(chunk_nos, stored):
                if oid == NO_CHUNK or count == 0:
                    offsets = np.empty(0, dtype=np.int32)
                    values = np.empty((0, self.n_measures), dtype=self._np_dtype)
                    offsets.flags.writeable = values.flags.writeable = False
                else:
                    payload = next(payloads)
                    fetched += 1
                    fetched_bytes += len(payload)
                    offsets, values = decode_chunk(
                        payload, self.geometry.chunk_cells, self.n_measures,
                        self.dtype,
                    )
                yield DecodedChunk(self.geometry, chunk_no, offsets, values)
        finally:
            if fetched:
                counters.add_many(
                    {"chunks_read": fetched, "chunk_bytes_read": fetched_bytes}
                )

    def _chunk_to_write(self, chunk_no: int) -> DecodedChunk:
        """The stored chunk a write rewrites: the cache's record when one
        is resident (peeked, so the write counts no hit and refreshes
        nothing), else a direct read that caches nothing the write would
        only invalidate."""
        cache = self.chunk_cache
        chunk = None if cache is None else cache.peek((self.name, chunk_no))
        if chunk is None:
            chunk = next(self._read_run([chunk_no]))
        return chunk

    def walk(
        self, chunk_range: range, masks=None, counters: Counters | None = None,
        cold: bool = False,
    ):
        """The one chunk walk: non-empty chunks a selection can touch.

        Yields each chunk's :class:`~repro.core.chunking.DecodedChunk` in
        ascending chunk number — the chunks' physical order (§4.2) — over
        ``chunk_range`` (a partition is just a sub-range).  ``masks``
        (one boolean membership array per dimension) prunes chunks whose
        index box misses the selection without reading them.  Everything
        spent is billed to ``counters``: ``chunks_skipped`` (pruned),
        ``empty_chunks_skipped`` (no stored cell, known from the
        directory alone), and per fetched payload ``chunks_read`` /
        ``chunk_bytes_read``, so the three add up to the range cold.
        ``cold`` reads around the chunk cache (:meth:`read_chunk`); a
        walk that does, or an array without a cache, reads the chunks
        a run at a time (:meth:`_read_run`).
        """
        counters = self._bag(counters)
        chunk_nos = self.geometry.overlapping_chunks(chunk_range, masks)
        counters.add("chunks_skipped", len(chunk_range) - len(chunk_nos))
        if cold or self.chunk_cache is None:
            chunks = self._read_run(chunk_nos, counters)
        else:
            chunks = (self.read_chunk(no, counters) for no in chunk_nos)
        empty = 0
        for chunk in chunks:
            if len(chunk):
                yield chunk
            else:
                empty += 1
        counters.add("empty_chunks_skipped", empty)

    def selected_cells(
        self, chunk_range: range, masks=None, counters=None, cold: bool = False
    ):
        """:meth:`walk`, narrowed to the cells the selection keeps.

        The per-cell filter is the ``logical_and`` of the same masks that
        pruned the chunks, looked up by ``offsetInChunk``.
        """
        if masks is None:
            yield from self.walk(chunk_range, None, counters, cold)
            return
        selected = ComposedTables(self.geometry, masks, np.logical_and)
        for chunk in self.walk(chunk_range, masks, counters, cold):
            keep = selected.gather(chunk.origin, chunk.halves)
            if keep is None:
                yield chunk
            elif keep.any():
                yield chunk.take(keep)

    # -- the §3.5 Read/Write function --------------------------------------------------------

    def _coords_of(self, keys: tuple) -> tuple[int, ...]:
        if len(keys) != self.geometry.ndim:
            raise DimensionError(
                f"expected {self.geometry.ndim} dimension keys, got {len(keys)}"
            )
        return tuple(
            dim.index_of(key) for dim, key in zip(self.dims, keys)
        )

    def get_cell(self, keys: tuple) -> np.ndarray | None:
        """Measure values at the cell addressed by dimension keys.

        Returns a length-``p`` array, or ``None`` for an invalid cell.
        Lookup is a B-tree probe per dimension plus a binary search of
        the chunk's sorted offsets.
        """
        chunk_no, offset = self.geometry.locate(self._coords_of(keys))
        chunk = self.read_chunk(chunk_no)
        position = int(np.searchsorted(chunk.offsets, offset))
        if position < len(chunk) and chunk.offsets[position] == offset:
            return chunk.values[position].copy()
        return None

    def write_cell(self, keys: tuple, measures) -> np.ndarray | None:
        """Insert or overwrite one cell; returns the measures it replaced
        (``None`` for a new cell), which a materialized aggregate folds.

        An overwrite in an addressable codec (chunk-offset, dense) is a
        :meth:`LargeObjectStore.write_at
        <repro.storage.large_object.LargeObjectStore.write_at>` of the
        cell's ``8·p`` value bytes: one page dirtied, no object created,
        the directory untouched.  An insert — or any write to an LZW
        chunk — re-encodes the chunk (see :meth:`_store_chunk`).
        """
        measures = np.asarray(measures, dtype=self._np_dtype).reshape(-1)
        if measures.size != self.n_measures:
            raise ArrayError(
                f"expected {self.n_measures} measures, got {measures.size}"
            )
        chunk_no, offset = self.geometry.locate(self._coords_of(keys))
        chunk = self._chunk_to_write(chunk_no)
        offsets, values = chunk.offsets, chunk.values
        position = int(np.searchsorted(offsets, offset))
        if position < len(offsets) and offsets[position] == offset:
            replaced = values[position].copy()
            value_at = get_codec(self.codec_name).value_at(
                offset, position, len(offsets), self.geometry.chunk_cells,
                self.n_measures,
            )
            if value_at is not None:
                oid = self._entries()[chunk_no][0]
                self.chunks.write_at(oid, value_at, measures.tobytes())
                if self.chunk_cache is not None:
                    self.chunk_cache.invalidate_chunk(self.name, chunk_no)
                return replaced
            values = values.copy()
            values[position] = measures
        else:
            replaced = None
            offsets = np.insert(offsets, position, offset)
            values = np.insert(values, position, measures, axis=0)
        self._store_chunk(chunk_no, offsets, values)
        return replaced

    def add_cells(self, coords: list[np.ndarray], measures: list[np.ndarray]) -> None:
        """Fold measure rows into cells additively, one re-encode per chunk.

        ``coords`` holds one array-index column per dimension and
        ``measures`` one column per measure (cast to the array's dtype).
        Each cell ends as ``stored + r1 + r2 + …`` over its rows in
        order — a new cell starts from its first row — which is what
        adding them one :meth:`write_cell` at a time gives.
        """
        if len(measures) != self.n_measures:
            raise ArrayError(
                f"expected {self.n_measures} measures, got {len(measures)}"
            )
        rows = np.empty((len(coords[0]), self.n_measures), self._np_dtype)
        if not len(rows):
            return
        for i, measure in enumerate(measures):  # each cast alone
            rows[:, i] = measure
        chunk_cells = self.geometry.chunk_cells
        cells = self.geometry.cell_keys(coords)
        order = np.argsort(cells, kind="stable")  # rows of a cell stay in order
        cells, rows = cells[order], rows[order]
        starts = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])
        runs = np.diff(np.r_[starts, len(cells)])
        touched = cells[starts] // chunk_cells
        bounds = np.flatnonzero(np.r_[True, touched[1:] != touched[:-1]])
        for lo, hi in zip(bounds, np.r_[bounds[1:], len(starts)]):
            chunk_no = int(touched[lo])
            group = starts[lo:hi]
            new = (cells[group] - chunk_no * chunk_cells).astype(np.int32)
            stored = self._chunk_to_write(chunk_no)
            stored_offsets, stored_values = stored.offsets, stored.values
            at = np.searchsorted(stored_offsets, new)
            hit = at < len(stored_offsets)
            hit[hit] = stored_offsets[at[hit]] == new[hit]
            folded = rows[group]  # a copy: fancy indexing
            folded[hit] = stored_values[at[hit]] + folded[hit]
            group_runs = runs[lo:hi]
            for r in range(1, int(group_runs.max())):
                more = group_runs > r
                folded[more] += rows[group[more] + r]
            values = stored_values.copy()
            values[at[hit]] = folded[hit]
            merged = np.concatenate([stored_offsets, new[~hit]])
            merged_order = np.argsort(merged, kind="stable")
            self._store_chunk(
                chunk_no,
                merged[merged_order],
                np.concatenate([values, folded[~hit]])[merged_order],
            )

    def _store_chunk(
        self, chunk_no: int, offsets: np.ndarray, values: np.ndarray
    ) -> None:
        """Re-encode one chunk's cells over its own page run when the
        payload still needs as many pages; only a payload that outgrows
        its run moves to a new object (the old run is then dead space,
        reclaimed by a rebuild)."""
        payload = get_codec(self.codec_name).encode(
            offsets, values, self.geometry.chunk_cells, self.dtype
        )
        oid = self._entries()[chunk_no][0]
        if oid == NO_CHUNK or not self.chunks.rewrite(oid, payload):
            oid = self.chunks.create(payload)
        self.directory.set_entry(chunk_no, oid, len(payload), len(offsets))
        # the walk's copy is loaded above, so the planner's is too
        self._dir_cache[chunk_no] = self._catalog[chunk_no] = (
            oid, len(payload), len(offsets)
        )
        if self.chunk_cache is not None:
            self.chunk_cache.invalidate_chunk(self.name, chunk_no)

    # -- the §3.5 summation and slicing functions ----------------------------------------------

    def _normalize_ranges(self, ranges) -> list[tuple[int, int]]:
        if len(ranges) != self.geometry.ndim:
            raise DimensionError(
                f"expected {self.geometry.ndim} ranges, got {len(ranges)}"
            )
        normalized = []
        for axis, (bounds, size) in enumerate(zip(ranges, self.geometry.shape)):
            low, high = (0, size - 1) if bounds is None else bounds
            if not 0 <= low <= high < size:
                raise DimensionError(
                    f"range ({low}, {high}) invalid on axis {axis} of size {size}"
                )
            normalized.append((low, high))
        return normalized

    def _region_cells(self, ranges):
        """The walk over an index-range box: the chunks' records narrowed
        to the valid cells inside it; chunks outside are never read."""
        masks = []
        for (low, high), size in zip(
            self._normalize_ranges(ranges), self.geometry.shape
        ):
            mask = np.zeros(size, dtype=bool)
            mask[low : high + 1] = True
            masks.append(mask)
        return self.selected_cells(range(self.geometry.n_chunks), masks)

    def sum_region(self, ranges) -> np.ndarray:
        """Per-measure sums over an index-range box.

        ``ranges`` holds one ``(low, high)`` inclusive index pair per
        dimension (``None`` = the whole dimension).  Chunks outside the
        box are never read.
        """
        totals = np.zeros(self.n_measures, dtype=self._np_dtype)
        for chunk in self._region_cells(ranges):
            totals += chunk.values.sum(axis=0, dtype=self._np_dtype)
        return totals

    def slice_dim(self, dim: int | str, key) -> list[tuple[tuple, np.ndarray]]:
        """All valid cells with one dimension fixed at ``key``.

        Returns ``[(dimension keys..., measure row)]`` sorted by cell
        coordinates — the §3.5 slicing function.
        """
        d = self.dim_no(dim)
        index = self.dims[d].index_of(key)
        box = [
            (index, index) if axis == d else None
            for axis in range(self.geometry.ndim)
        ]
        out = []
        for chunk in self._region_cells(box):
            coords = self.geometry.chunk_offset_to_coords(chunk.no, chunk.offsets)
            for row, measure in zip(coords, chunk.values):
                keys = tuple(
                    self.dims[axis].key_of(int(c)) for axis, c in enumerate(row)
                )
                out.append((keys, measure.copy()))
        out.sort(key=lambda item: item[0])
        return out

    # -- statistical ADT functions (§3.5's promised analytics) ------------------------------------

    def _region_values(self, ranges) -> np.ndarray:
        """All measure rows of valid cells inside a region box."""
        parts = [chunk.values for chunk in self._region_cells(ranges)]
        if not parts:
            return np.empty((0, self.n_measures), dtype=self._np_dtype)
        return np.concatenate(parts, axis=0)

    def measure_stats(self, ranges=None) -> dict[str, dict[str, float]]:
        """Per-measure count/sum/mean/variance over a region.

        ``ranges`` is as in :meth:`sum_region` (``None`` = whole array).
        The "expected value" style statistics §2.1 mentions, computed
        inside the ADT.  An integer measure folds in Python integers: its
        ``sum`` is exact, and ``mean`` and (population) ``var`` are each
        rounded once from the exact moments.
        """
        if ranges is None:
            ranges = [None] * self.geometry.ndim
        values = self._region_values(ranges)
        exact = np.issubdtype(values.dtype, np.integer)
        out: dict[str, dict[str, float]] = {}
        for m, name in enumerate(self.measure_names):
            column = values[:, m]
            count = int(column.size)
            stats = {"count": count}
            if count and exact:
                xs = column.tolist()
                total = sum(xs)
                squares = sum(x * x for x in xs)
                # int / int is correctly rounded
                stats["sum"] = total
                stats["mean"] = total / count
                stats["var"] = (count * squares - total * total) / (count * count)
            elif count:
                column = column.astype(np.float64)
                stats["sum"] = float(column.sum())
                stats["mean"] = float(column.mean())
                stats["var"] = float(column.var())
            out[name] = stats
        return out

    def correlation(self, measure_a: str, measure_b: str, ranges=None) -> float | None:
        """Pearson correlation of two measures over a region's valid cells.

        §3.5: "The Paradise ADT model will eventually allow us to
        implement complex OLAP analytical functions such as correlation
        and variance inside the DBMS server."  Here it is.  Returns
        ``None`` when fewer than two cells qualify or a measure is
        constant.
        """
        try:
            a = self.measure_names.index(measure_a)
            b = self.measure_names.index(measure_b)
        except ValueError as exc:
            raise ArrayError(
                f"unknown measure {exc.args[0] if exc.args else ''!r}; have "
                f"{self.measure_names}"
            ) from None
        if ranges is None:
            ranges = [None] * self.geometry.ndim
        values = self._region_values(ranges).astype(np.float64)
        if values.shape[0] < 2:
            return None
        x, y = values[:, a], values[:, b]
        sx, sy = x.std(), y.std()
        if sx == 0.0 or sy == 0.0:
            return None
        return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))

    # -- statistics ---------------------------------------------------------------------------------

    @property
    def n_valid(self) -> int:
        """Number of valid (stored) cells."""
        return sum(entry[2] for entry in self._entries())

    @property
    def density(self) -> float:
        """Fraction of logical cells that are valid."""
        return self.n_valid / self.geometry.logical_cells

    def storage_bytes(self, include_indices: bool = True) -> int:
        """On-disk footprint of the array.

        Counts page-rounded live chunk payloads plus the chunk
        directory; with ``include_indices`` also the per-dimension key
        B-trees, attribute B-trees and the aux store (IndexToIndex
        arrays, reverse key lists, metadata).
        """
        page = self.fm.pool.disk.page_size
        chunk_bytes = 0
        for oid, length, _ in self._entries():
            if oid != NO_CHUNK:
                chunk_bytes += page * max(1, math.ceil(length / page))
        total = chunk_bytes + self.directory.size_bytes()
        if include_indices:
            total += sum(dim.footprint_bytes() for dim in self.dims)
            for d, info in enumerate(self._meta["dims"]):
                for attr in info["attrs"]:
                    total += self.attribute_index(d, attr).size_bytes()
            total += self.aux.footprint_bytes()
        return total

    def __repr__(self) -> str:
        return (
            f"OLAPArray(name={self.name!r}, shape={self.geometry.shape}, "
            f"chunks={self.geometry.n_chunks}, valid={self.n_valid})"
        )
