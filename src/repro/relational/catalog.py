"""The :class:`Database`: one storage stack plus a table/index catalog.

A ``Database`` bundles the simulated disk, buffer pool, decoded-chunk
cache, optional WAL, lock manager and file manager, and tracks which
files are heap tables, fact files, B-trees or bitmap indices.  The
experiment harness talks to a ``Database`` for cold-cache resets and
I/O statistics.
"""

from __future__ import annotations

from repro.errors import CatalogError
from repro.index.bitmap import BitmapIndex, factorize
from repro.index.btree import BTree
from repro.obs.registry import MetricsRegistry
from repro.relational.fact_file import FactFile
from repro.relational.heap_file import HeapFile
from repro.relational.schema import Schema
from repro.storage.buffer_pool import BufferPool, DEFAULT_POOL_BYTES
from repro.storage.chunk_cache import ChunkCache
from repro.storage.disk import DiskModel, SimulatedDisk
from repro.storage.locks import LockManager
from repro.storage.page_file import FileManager
from repro.storage.wal import WriteAheadLog, recover

_CATALOG_FILE = "__catalog__"


class Database:
    """A self-contained storage stack with named tables and indices."""

    def __init__(
        self,
        page_size: int = 8192,
        pool_bytes: int = DEFAULT_POOL_BYTES,
        disk_model: DiskModel | None = None,
        enable_wal: bool = False,
        disk: SimulatedDisk | None = None,
        wal: WriteAheadLog | None = None,
        wal_dir: str | None = None,
    ):
        if disk is not None and disk.num_pages:
            raise CatalogError(
                "Database() initialises a fresh volume; use Database.attach "
                "to re-open an existing one"
            )
        self.disk = disk or SimulatedDisk(page_size=page_size, model=disk_model)
        if wal is not None:
            self.wal: WriteAheadLog | None = wal
        elif wal_dir is not None:
            self.wal = WriteAheadLog(wal_dir)
        elif enable_wal:
            self.wal = WriteAheadLog()
        else:
            self.wal = None
        self._open(pool_bytes)
        self.fm.create(_CATALOG_FILE)

    def _open(self, pool_bytes: int, master_page_id: int | None = None) -> None:
        """Stack an empty catalog on ``disk``: the buffer pool, the
        decoded-chunk cache above it (:meth:`cold_cache` empties both),
        the file manager, locks and metrics."""
        self.pool = BufferPool(self.disk, capacity_bytes=pool_bytes, wal=self.wal)
        self.chunks = ChunkCache()
        self.fm = FileManager(self.pool, master_page_id)
        self.locks = LockManager()
        self.metrics = self._build_metrics()
        self._tables: dict[str, HeapFile | FactFile] = {}
        self._btrees: dict[str, BTree] = {}
        self._bitmaps: dict[str, BitmapIndex] = {}
        self._kinds: dict[str, str] = {}
        self._closed = False

    def _build_metrics(self) -> MetricsRegistry:
        """Register every storage-stack counter source, gauge and
        latency histogram."""
        metrics = MetricsRegistry()
        metrics.register("disk", self.disk.counters)
        metrics.register("pool", self.pool.counters)
        metrics.register_gauge("pool_resident_pages", self.pool.resident_pages)
        metrics.register_gauge("pool_hit_rate", self.pool.hit_rate)
        metrics.register_gauge("disk_used_bytes", self.disk.used_bytes)
        metrics.register("chunk_cache", self.chunks.counters)
        metrics.register_gauge("chunk_cache_entries", self.chunks.__len__)
        for histograms in (self.pool.histograms, self.chunks.histograms):
            for name, histogram in histograms.items():
                metrics.register_histogram(name, histogram)
        if self.wal is not None:
            metrics.register("wal", self.wal.counters)
            metrics.register_gauge("wal_size_bytes", self.wal.size_bytes)
            metrics.register_gauge("wal_segments", self.wal.segment_count)
            for name, histogram in self.wal.histograms.items():
                metrics.register_histogram(name, histogram)
        return metrics

    @classmethod
    def attach(
        cls,
        disk: SimulatedDisk,
        pool_bytes: int = DEFAULT_POOL_BYTES,
        wal: WriteAheadLog | None = None,
    ) -> "Database":
        """Re-open a database from an existing volume.

        The volume typically comes from :meth:`SimulatedDisk.load`; the
        persisted catalog reconstructs every table and index object.
        (Volumes created with a WAL must be recovered first — see
        :func:`repro.storage.wal.recover`; pass the recovered ``wal`` to
        keep logging writes against the same log.)
        """
        db = cls.__new__(cls)
        db.disk = disk
        db.wal = wal
        # the Database constructor allocates the FileManager master page
        # first, so it is always page 0 of the volume
        db._open(pool_bytes, master_page_id=0)
        db._kinds = db._load_kinds()
        for name, kind in db._kinds.items():
            if kind == "heap":
                db._tables[name] = HeapFile.open(db.fm, name)
            elif kind == "fact":
                table = FactFile.open(db.fm, name)
                db._tables[name] = table
                db.metrics.register(f"fact:{name}", table.counters)
            elif kind == "btree":
                db._btrees[name] = BTree.open(db.fm, name)
            elif kind.startswith("bitmap:"):
                length = int(kind.split(":", 1)[1])
                db._bitmaps[name] = BitmapIndex(db.fm, name, length)
            else:
                raise CatalogError(f"unknown catalog kind {kind!r} for {name!r}")
        return db

    @classmethod
    def open(
        cls,
        image_path: str,
        wal_dir: str | None = None,
        pool_bytes: int = DEFAULT_POOL_BYTES,
        disk_model: DiskModel | None = None,
    ) -> "Database":
        """Open a database from a saved volume image, replaying the WAL.

        ``image_path`` is a file written by :meth:`SimulatedDisk.save`
        (e.g. a :meth:`checkpoint` image).  When ``wal_dir`` names a
        file-backed log, committed records past the image are replayed
        before the catalog loads, so a crashed process's committed state
        is fully restored — this is the "restart" path.
        """
        disk = SimulatedDisk.load(image_path, model=disk_model)
        wal = None
        if wal_dir is not None:
            wal = WriteAheadLog(wal_dir)
            recover(disk, wal)
        return cls.attach(disk, pool_bytes=pool_bytes, wal=wal)

    def _load_kinds(self) -> dict[str, str]:
        catalog = self.fm.open(_CATALOG_FILE)
        meta = catalog.get_meta()
        if not meta:
            return {}
        length = int(meta.decode())
        page_size = self.disk.page_size
        payload = bytearray()
        for page_no in range(catalog.npages):
            payload += catalog.read(page_no)
        text = bytes(payload[:length]).decode()
        if not text:
            return {}
        return dict(part.split("=", 1) for part in text.split(","))

    # -- catalog persistence ------------------------------------------------

    def _store_kinds(self) -> None:
        # The kind registry grows with the number of files, so it lives on
        # the catalog file's data pages; the header meta holds its length.
        text = ",".join(f"{k}={v}" for k, v in sorted(self._kinds.items()))
        payload = text.encode()
        catalog = self.fm.open(_CATALOG_FILE)
        page_size = self.disk.page_size
        catalog.ensure_pages(max(1, -(-len(payload) // page_size)))
        for page_no in range(catalog.npages):
            piece = payload[page_no * page_size : (page_no + 1) * page_size]
            buf = catalog.read(page_no)
            buf[: len(piece)] = piece
            catalog.mark_dirty(page_no)
        catalog.set_meta(str(len(payload)).encode())

    def _register(self, name: str, kind: str) -> None:
        if name in self._kinds:
            raise CatalogError(f"{name!r} already exists (as {self._kinds[name]})")
        self._kinds[name] = kind
        self._store_kinds()

    # -- tables ------------------------------------------------------------------

    def create_heap_table(
        self, name: str, schema: Schema, extent_pages: int = 16
    ) -> HeapFile:
        """Create a slotted-page table (dimension tables)."""
        self._register(name, "heap")
        table = HeapFile.create(self.fm, name, schema, extent_pages=extent_pages)
        self._tables[name] = table
        return table

    def create_fact_table(self, name: str, schema: Schema) -> FactFile:
        """Create a §4.4 fixed-record fact file."""
        self._register(name, "fact")
        table = FactFile.create(self.fm, name, schema)
        self._tables[name] = table
        self.metrics.register(f"fact:{name}", table.counters)
        return table

    def table(self, name: str) -> HeapFile | FactFile:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def table_names(self) -> list[str]:
        """All table names, sorted."""
        return sorted(self._tables)

    # -- indices --------------------------------------------------------------------

    def create_btree_index(
        self, index_name: str, table_name: str, column: str
    ) -> BTree:
        """Build a B-tree mapping a fact file's ``column`` values → tuple
        numbers (usable with :meth:`FactFile.get`)."""
        (keys,) = self._key_columns(table_name, [column])
        return self._bulk_load_index(index_name, keys)

    def create_composite_btree_index(
        self, index_name: str, table_name: str, columns: list[str]
    ) -> BTree:
        """Build a multi-attribute B-tree: tuple of columns → position.

        The backing structure of the "skipping multi-attribute B-tree"
        selection baseline (§4.4); keys compare lexicographically.
        """
        keys = list(zip(*self._key_columns(table_name, columns)))
        return self._bulk_load_index(index_name, keys)

    def _key_columns(self, table_name: str, columns: list[str]) -> list[list]:
        """The named columns of a fact file as Python values in
        tuple-number order, read a page slice at a time."""
        table = self.table(table_name)
        if not isinstance(table, FactFile):
            raise CatalogError(f"B-tree indices cover fact files, not {table_name!r}")
        positions = [table.schema.index_of(c) for c in columns]
        stored = table.columns()
        return [stored[p].tolist() for p in positions]

    def _bulk_load_index(self, index_name: str, keys: list) -> BTree:
        """Register ``index_name`` and bulk-load ``keys[t] → t``."""
        self._register(index_name, "btree")
        tree = BTree.bulk_load(self.fm, index_name, zip(keys, range(len(keys))))
        self._btrees[index_name] = tree
        return tree

    def create_bitmap_index(
        self, index_name: str, length: int, position_values
    ) -> BitmapIndex:
        """Build a bitmap index over an explicit position/value stream.

        Join bitmap indices need values *joined through* the fact table,
        so the caller supplies the attribute value of every position
        (or, to :meth:`create_coded_bitmap_index`, that column coded).
        """
        return self.create_coded_bitmap_index(
            index_name, length, *factorize(position_values)
        )

    def create_coded_bitmap_index(
        self, index_name: str, length: int, labels: list, codes
    ) -> BitmapIndex:
        """:meth:`create_bitmap_index` over ascending ``labels`` and
        each position's index into them (the loader's form)."""
        # the position-space length rides in the catalog kind so that
        # attach() can reconstruct the index
        self._register(index_name, f"bitmap:{length}")
        index = BitmapIndex.build_coded(self.fm, index_name, length, labels, codes)
        self._bitmaps[index_name] = index
        return index

    def btree(self, name: str) -> BTree:
        """Look up a B-tree index by name."""
        try:
            return self._btrees[name]
        except KeyError:
            raise CatalogError(f"no B-tree index named {name!r}") from None

    def bitmap(self, name: str) -> BitmapIndex:
        """Look up a bitmap index by name."""
        try:
            return self._bitmaps[name]
        except KeyError:
            raise CatalogError(f"no bitmap index named {name!r}") from None

    def index_names(self) -> list[str]:
        """All index names, sorted."""
        return sorted(list(self._btrees) + list(self._bitmaps))

    # -- durability ------------------------------------------------------------------

    def commit(self) -> None:
        """Make every completed write durable.

        With a WAL this logs after-images of unlogged dirty frames and
        syncs through a commit marker (the fsync point); without one it
        is a no-op — volatile databases are "committed" by definition.
        """
        self.pool.commit()

    def checkpoint(self, image_path: str | None = None) -> str | None:
        """Flush the pool, persist a volume image, truncate the WAL.

        Returns the image path (defaults to ``checkpoint.img`` inside a
        file-backed WAL's directory).  After a checkpoint, restart =
        :meth:`open` on the image + replay of the (short) residual log.
        """
        if self.wal is None:
            raise CatalogError("checkpoint requires a database with a WAL")
        self.pool.flush_all()  # commits first (no-steal), then writes back
        return self.wal.checkpoint(self.disk, image_path=image_path)

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        """Commit, flush, and release the WAL's file handle (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.pool.flush_all()
        if self.wal is not None:
            self.wal.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- measurement support ---------------------------------------------------------

    def cold_cache(self) -> None:
        """Flush and empty the buffer pool, empty the decoded-chunk
        cache and park the disk arm.

        This is the paper's pre-query ritual ("we flushed both the Unix
        file system buffer and Paradise buffer pool before running each
        query").  Counters are not touched: take :meth:`stats` before
        and after the measured work and subtract.
        """
        self.pool.clear()
        self.chunks.clear()
        self.disk.park()

    def stats(self) -> dict[str, float]:
        """All registered counters merged, over the database's lifetime."""
        return self.metrics.merged_snapshot()

    def sim_io_seconds(self) -> float:
        """Simulated I/O seconds over the database's lifetime."""
        return self.disk.counters.get("sim_io_s")
