"""§3.3 chunk meta directory: OID + length (+ valid-cell count) per chunk.

"Since in this representation chunks will be of variable length, we use
some meta data to hold the OID and the length of each chunk and store
the meta data at the beginning of the data file."  Here the directory
is a page file of fixed entries indexed by chunk number; its header
also stores the OID of the array's metadata blob.

Chunks with no valid cells have no stored object (OID −1) so the scan
can skip them without any I/O.
"""

from __future__ import annotations

import struct

from repro.errors import ChunkError
from repro.storage.page_file import FileManager, PageFile

_ENTRY = struct.Struct("<qqq")  # oid, length, valid-cell count
_META = struct.Struct("<qq")  # n_chunks, array-meta oid

NO_CHUNK = -1


class ChunkDirectory:
    """Fixed-entry chunk_no → (oid, length, count) table on pages."""

    def __init__(self, pfile: PageFile):
        self._file = pfile
        self._per_page = pfile.pool.disk.page_size // _ENTRY.size
        meta = pfile.get_meta()
        if meta:
            self.n_chunks, self._array_meta_oid = _META.unpack_from(meta, 0)
        else:
            raise ChunkError("chunk directory header missing; use create()")

    @classmethod
    def create(cls, fm: FileManager, name: str, n_chunks: int) -> "ChunkDirectory":
        """Allocate a directory with every chunk marked empty."""
        if n_chunks <= 0:
            raise ChunkError(f"n_chunks must be positive, got {n_chunks}")
        pfile = fm.create(name)
        pfile.set_meta(_META.pack(n_chunks, NO_CHUNK))
        directory = cls(pfile)
        pfile.ensure_pages(-(-n_chunks // directory._per_page))
        for chunk_no in range(n_chunks):
            directory.set_entry(chunk_no, NO_CHUNK, 0, 0)
        return directory

    @classmethod
    def open(cls, fm: FileManager, name: str) -> "ChunkDirectory":
        """Open an existing directory."""
        return cls(fm.open(name))

    def _locate(self, chunk_no: int) -> tuple[int, int]:
        if not 0 <= chunk_no < self.n_chunks:
            raise ChunkError(
                f"chunk {chunk_no} out of range [0, {self.n_chunks})"
            )
        page_no, index = divmod(chunk_no, self._per_page)
        return page_no, index * _ENTRY.size

    def set_entry(self, chunk_no: int, oid: int, length: int, count: int) -> None:
        """Record a chunk's object id, byte length and valid-cell count."""
        page_no, offset = self._locate(chunk_no)
        buf = self._file.read(page_no)
        _ENTRY.pack_into(buf, offset, oid, length, count)
        self._file.mark_dirty(page_no)

    def entry(self, chunk_no: int) -> tuple[int, int, int]:
        """``(oid, length, count)``; OID is ``NO_CHUNK`` for empty chunks."""
        page_no, offset = self._locate(chunk_no)
        return _ENTRY.unpack_from(self._file.read(page_no), offset)

    def load_all(self) -> list[tuple[int, int, int]]:
        """Read the whole directory in one sequential pass.

        This is how the paper uses the meta data: it sits "at the
        beginning of the data file" and is loaded once per query, not
        probed page-by-page during the chunk scan.
        """
        entries: list[tuple[int, int, int]] = []
        remaining = self.n_chunks
        for page_no in range(self._file.npages):
            buf = self._file.read(page_no)
            take = min(remaining, self._per_page)
            for i in range(take):
                entries.append(_ENTRY.unpack_from(buf, i * _ENTRY.size))
            remaining -= take
            if remaining <= 0:
                break
        return entries

    def total_valid(self) -> int:
        """Sum of valid-cell counts across all chunks."""
        return sum(self.entry(c)[2] for c in range(self.n_chunks))

    # -- array metadata pointer ----------------------------------------------

    @property
    def array_meta_oid(self) -> int:
        """OID of the array's metadata blob in the aux store."""
        return self._array_meta_oid

    def set_array_meta_oid(self, oid: int) -> None:
        """Point the directory at the array's metadata blob."""
        self._array_meta_oid = oid
        self._file.set_meta(_META.pack(self.n_chunks, oid))

    def size_bytes(self) -> int:
        """On-disk footprint of the directory."""
        return self._file.size_bytes()
