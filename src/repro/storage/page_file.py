"""Named page files built from extents of contiguous pages.

A :class:`PageFile` is an ordered sequence of logical data pages mapped
onto physical disk pages in fixed-size **extents** — runs of contiguous
page ids, exactly the §4.4 layout the fact file relies on ("the fact
file allocates n pages in groups called extents; within each extent,
all the pages are contiguous").  The header page keeps the extent
directory plus a small metadata blob for the structure living in the
file (record size, tuple count, ...).

A :class:`FileManager` is the volume-level name → file catalog, itself
persisted on a master page, so a disk image is self-describing.
"""

from __future__ import annotations

import struct

from repro.errors import FileError
from repro.storage.buffer_pool import BufferPool

_HEADER = struct.Struct(
    "<IqIIIq"
)  # magic, npages, extent_pages, n_extents, meta_len, next_dir_page
_MAGIC = 0x50474649  # "PGFI"
_EXTENT_ENTRY = struct.Struct("<q")
_DIR_NEXT = struct.Struct("<q")
_NO_PAGE = -1

DEFAULT_EXTENT_PAGES = 16


def _meta_capacity(page_size: int) -> int:
    """Bytes reserved at the tail of the header page for metadata.

    At least 96 bytes even on tiny pages (schema strings must fit); the
    extent directory spills into chained pages when the header area is
    squeezed out.
    """
    return min(2048, max(96, page_size // 4))


class PageFile:
    """A growable sequence of logical pages stored in contiguous extents."""

    def __init__(self, pool: BufferPool, header_page_id: int):
        self.pool = pool
        self.header_page_id = header_page_id
        self._load_header()

    # -- creation -------------------------------------------------------------

    @classmethod
    def create(
        cls, pool: BufferPool, extent_pages: int = DEFAULT_EXTENT_PAGES
    ) -> "PageFile":
        """Allocate and initialize a new empty file; returns its handle."""
        if extent_pages <= 0:
            raise FileError(f"extent_pages must be positive, got {extent_pages}")
        header_id = pool.new_page()
        buf = pool.get(header_id)
        _HEADER.pack_into(buf, 0, _MAGIC, 0, extent_pages, 0, 0, _NO_PAGE)
        pool.mark_dirty(header_id)
        return cls(pool, header_id)

    def _header_capacity(self) -> int:
        page_size = self.pool.disk.page_size
        usable = page_size - _HEADER.size - _meta_capacity(page_size)
        return usable // _EXTENT_ENTRY.size

    def _overflow_capacity(self) -> int:
        return (self.pool.disk.page_size - _DIR_NEXT.size) // _EXTENT_ENTRY.size

    def _load_header(self) -> None:
        buf = self.pool.get(self.header_page_id)
        magic, npages, extent_pages, n_extents, meta_len, next_dir = (
            _HEADER.unpack_from(buf, 0)
        )
        if magic != _MAGIC:
            raise FileError(
                f"page {self.header_page_id} is not a PageFile header"
            )
        self.extent_pages = extent_pages
        self._npages = npages
        self._meta_len = meta_len
        in_header = min(n_extents, self._header_capacity())
        self._extents: list[int] = [
            _EXTENT_ENTRY.unpack_from(buf, _HEADER.size + i * _EXTENT_ENTRY.size)[0]
            for i in range(in_header)
        ]
        # the directory spills into a chain of overflow pages
        self._dir_pages: list[int] = []
        remaining = n_extents - in_header
        per_page = self._overflow_capacity()
        page_id = next_dir
        while remaining > 0:
            if page_id == _NO_PAGE:
                raise FileError("extent directory chain truncated")
            self._dir_pages.append(page_id)
            dir_buf = self.pool.get(page_id)
            take = min(remaining, per_page)
            for i in range(take):
                self._extents.append(
                    _EXTENT_ENTRY.unpack_from(
                        dir_buf, _DIR_NEXT.size + i * _EXTENT_ENTRY.size
                    )[0]
                )
            remaining -= take
            (page_id,) = _DIR_NEXT.unpack_from(dir_buf, 0)

    def _store_head(self, buf: bytearray | None = None) -> None:
        """Write the header struct (page count, extent count, metadata
        length, first overflow page) into the header page ``buf``: O(1),
        for every extent entry is written once, when its extent is
        added (:meth:`_store_extent`)."""
        if buf is None:
            buf = self.pool.get(self.header_page_id)
        _HEADER.pack_into(
            buf,
            0,
            _MAGIC,
            self._npages,
            self.extent_pages,
            len(self._extents),
            self._meta_len,
            self._dir_pages[0] if self._dir_pages else _NO_PAGE,
        )
        self.pool.mark_dirty(self.header_page_id)

    def _store_extent(self, extent: int) -> bytearray | None:
        """Write directory entry ``extent``: in the header page, whose
        frame is returned, or in its overflow page, chained on when the
        entry is the page's first."""
        in_header = self._header_capacity()
        if extent < in_header:
            buf = self.pool.get(self.header_page_id)
            _EXTENT_ENTRY.pack_into(
                buf, _HEADER.size + extent * _EXTENT_ENTRY.size, self._extents[extent]
            )
            return buf
        page_no, slot = divmod(extent - in_header, self._overflow_capacity())
        if page_no == len(self._dir_pages):
            self._dir_pages.append(self.pool.new_page())
            if page_no:  # the chain's last page points on to the new one
                self._write_at(
                    self._dir_pages[page_no - 1], _DIR_NEXT, 0, self._dir_pages[page_no]
                )
            self._write_at(self._dir_pages[page_no], _DIR_NEXT, 0, _NO_PAGE)
        self._write_at(
            self._dir_pages[page_no],
            _EXTENT_ENTRY,
            _DIR_NEXT.size + slot * _EXTENT_ENTRY.size,
            self._extents[extent],
        )
        return None

    def _write_at(self, page_id: int, fmt: struct.Struct, offset: int, value) -> None:
        buf = self.pool.get(page_id)
        fmt.pack_into(buf, offset, value)
        self.pool.mark_dirty(page_id)

    # -- geometry ---------------------------------------------------------------

    @property
    def npages(self) -> int:
        """Number of logical data pages appended so far."""
        return self._npages

    def page_id(self, logical: int) -> int:
        """Physical page id of logical data page ``logical``."""
        if not 0 <= logical < self._npages:
            raise FileError(
                f"logical page {logical} out of range [0, {self._npages})"
            )
        extent, within = divmod(logical, self.extent_pages)
        return self._extents[extent] + within

    def append_page(self) -> int:
        """Append one logical page; returns its logical page number."""
        logical = self._npages
        extent = logical // self.extent_pages
        buf = None
        if extent == len(self._extents):
            self._extents.append(self.pool.disk.allocate(self.extent_pages))
            self.pool.counters.add("extents_allocated")
            buf = self._store_extent(extent)
        self._npages += 1
        self._store_head(buf)
        return logical

    def ensure_pages(self, count: int) -> None:
        """Grow the file until it has at least ``count`` logical pages."""
        while self._npages < count:
            self.append_page()

    # -- data access ---------------------------------------------------------------

    def read(self, logical: int) -> bytearray:
        """Buffer-pool frame of a logical page (see :meth:`BufferPool.get`)."""
        return self.pool.get(self.page_id(logical))

    def read_run(self, logical: int, n: int) -> list[bytes | bytearray]:
        """Read-only images of ``n`` (≥ 1) consecutive logical pages
        inside one extent, so physically adjacent: one
        :meth:`BufferPool.get_run`."""
        within = logical % self.extent_pages
        if n < 1 or within + n > self.extent_pages:
            raise FileError(
                f"run of {n} pages at logical page {logical} leaves its extent"
            )
        self.page_id(logical + n - 1)  # the whole run is in range
        return self.pool.get_run(self.page_id(logical), n)

    def mark_dirty(self, logical: int) -> None:
        """Mark a logical page modified."""
        self.pool.mark_dirty(self.page_id(logical))

    def write(self, logical: int, image: bytes) -> None:
        """Replace a logical page's image."""
        self.pool.write(self.page_id(logical), image)

    # -- metadata ---------------------------------------------------------------------

    def get_meta(self) -> bytes:
        """The file's metadata blob (empty if never set)."""
        if not self._meta_len:
            return b""
        buf = self.pool.get(self.header_page_id)
        start = self.pool.disk.page_size - _meta_capacity(self.pool.disk.page_size)
        return bytes(buf[start : start + self._meta_len])

    def set_meta(self, blob: bytes) -> None:
        """Store the metadata blob in the header page's reserved tail."""
        capacity = _meta_capacity(self.pool.disk.page_size)
        if len(blob) > capacity:
            raise FileError(
                f"metadata blob is {len(blob)} bytes, capacity is {capacity}"
            )
        buf = self.pool.get(self.header_page_id)
        start = self.pool.disk.page_size - capacity
        buf[start : start + len(blob)] = blob
        self._meta_len = len(blob)
        self._store_head(buf)

    def size_bytes(self) -> int:
        """On-disk footprint: header, directory chain, and every extent."""
        page = self.pool.disk.page_size
        return page * (
            1 + len(self._dir_pages) + len(self._extents) * self.extent_pages
        )


_MASTER_COUNT = struct.Struct("<I")
_MASTER_ENTRY_HEAD = struct.Struct("<Hq")
_MASTER_PAGE_HEAD = struct.Struct("<qI")  # next page, payload bytes on page


class FileManager:
    """Volume-level catalog mapping file names to header pages.

    The catalog serializes onto a chain of master pages, so the number
    of files is bounded only by the volume.
    """

    def __init__(self, pool: BufferPool, master_page_id: int | None = None):
        self.pool = pool
        if master_page_id is None:
            master_page_id = pool.new_page()
            self._directory: dict[str, int] = {}
            self._chain: list[int] = [master_page_id]
            self.master_page_id = master_page_id
            self._store()
        else:
            self.master_page_id = master_page_id
            self._load()

    def _payload_capacity(self) -> int:
        return self.pool.disk.page_size - _MASTER_PAGE_HEAD.size

    def _load(self) -> None:
        payload = bytearray()
        self._chain = []
        page_id = self.master_page_id
        while page_id != _NO_PAGE:
            self._chain.append(page_id)
            buf = self.pool.get(page_id)
            next_page, length = _MASTER_PAGE_HEAD.unpack_from(buf, 0)
            start = _MASTER_PAGE_HEAD.size
            payload += buf[start : start + length]
            page_id = next_page
        (count,) = _MASTER_COUNT.unpack_from(payload, 0)
        offset = _MASTER_COUNT.size
        self._directory = {}
        for _ in range(count):
            name_len, header_id = _MASTER_ENTRY_HEAD.unpack_from(payload, offset)
            offset += _MASTER_ENTRY_HEAD.size
            name = bytes(payload[offset : offset + name_len]).decode("utf-8")
            offset += name_len
            self._directory[name] = header_id

    def _store(self) -> None:
        payload = bytearray(_MASTER_COUNT.pack(len(self._directory)))
        for name, header_id in self._directory.items():
            raw = name.encode("utf-8")
            payload += _MASTER_ENTRY_HEAD.pack(len(raw), header_id)
            payload += raw
        capacity = self._payload_capacity()
        pages_needed = max(1, -(-len(payload) // capacity))
        while len(self._chain) < pages_needed:
            self._chain.append(self.pool.new_page())
        for page_no in range(pages_needed):
            buf = self.pool.get(self._chain[page_no])
            piece = payload[page_no * capacity : (page_no + 1) * capacity]
            next_page = (
                self._chain[page_no + 1]
                if page_no + 1 < pages_needed
                else _NO_PAGE
            )
            _MASTER_PAGE_HEAD.pack_into(buf, 0, next_page, len(piece))
            buf[_MASTER_PAGE_HEAD.size : _MASTER_PAGE_HEAD.size + len(piece)] = (
                piece
            )
            self.pool.mark_dirty(self._chain[page_no])

    def create(
        self, name: str, extent_pages: int = DEFAULT_EXTENT_PAGES
    ) -> PageFile:
        """Create an empty named file."""
        if name in self._directory:
            raise FileError(f"file {name!r} already exists")
        pfile = PageFile.create(self.pool, extent_pages)
        self._directory[name] = pfile.header_page_id
        self._store()
        self.pool.counters.add("files_created")
        return pfile

    def open(self, name: str) -> PageFile:
        """Open an existing named file."""
        if name not in self._directory:
            raise FileError(f"no such file: {name!r}")
        self.pool.counters.add("files_opened")
        return PageFile(self.pool, self._directory[name])

    def exists(self, name: str) -> bool:
        """Whether a file with this name exists."""
        return name in self._directory

    def names(self) -> list[str]:
        """All file names, sorted."""
        return sorted(self._directory)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Flush every dirty frame so the disk holds the full catalog.

        Idempotent; part of the uniform ``open()/close()`` +
        context-manager surface shared with :class:`Database
        <repro.relational.catalog.Database>` and
        :class:`~repro.storage.wal.WriteAheadLog`.
        """
        self.pool.flush_all()

    def __enter__(self) -> "FileManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
