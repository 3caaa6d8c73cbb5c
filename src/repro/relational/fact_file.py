"""The §4.4 fact file: fixed-length records with positional access.

Fact-table tuples are fixed length, so the fact file packs them
back-to-back on pages inside contiguous-page extents (provided by
:class:`~repro.storage.page_file.PageFile`) with **no slot directory**.
Given a tuple number, the page and offset are arithmetic:

    page  = tuple_no // records_per_page
    offset = (tuple_no % records_per_page) * record_size

which gives both of the paper's benefits: (1) a fast path from bitmap
positions to tuples, and (2) zero per-record space overhead.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import FileError
from repro.relational.schema import Schema
from repro.storage.page_file import FileManager, PageFile
from repro.util.bitset import Bitset
from repro.util.records import fact_columns
from repro.util.stats import Counters

_META_HEAD = struct.Struct("<qH")  # tuple count, schema text length


class FactFile:
    """A table of fixed-length records addressable by tuple number."""

    def __init__(self, pfile: PageFile, schema: Schema | None = None):
        self._file = pfile
        self.counters = Counters()
        meta = pfile.get_meta()
        if meta:
            count, text_len = _META_HEAD.unpack_from(meta, 0)
            stored = Schema.from_text(
                meta[_META_HEAD.size : _META_HEAD.size + text_len].decode()
            )
            if schema is not None and schema != stored:
                raise FileError("schema does not match stored table schema")
            self.schema = stored
            self._count = count
        else:
            if schema is None:
                raise FileError("new fact file needs a schema")
            self.schema = schema
            self._count = 0
            self._store_meta()
        page_size = pfile.pool.disk.page_size
        self.record_size = self.schema.record_size
        self.records_per_page = page_size // self.record_size
        if self.records_per_page == 0:
            raise FileError(
                f"record of {self.record_size} bytes exceeds page size"
            )

    @classmethod
    def create(
        cls,
        fm: FileManager,
        name: str,
        schema: Schema,
        extent_pages: int = 16,
    ) -> "FactFile":
        """Create an empty named fact file."""
        return cls(fm.create(name, extent_pages=extent_pages), schema)

    @classmethod
    def open(cls, fm: FileManager, name: str) -> "FactFile":
        """Open an existing fact file."""
        return cls(fm.open(name))

    def _store_meta(self) -> None:
        text = self.schema.to_text().encode()
        self._file.set_meta(_META_HEAD.pack(self._count, len(text)) + text)

    def _locate(self, tuple_no: int) -> tuple[int, int]:
        if not 0 <= tuple_no < self._count:
            raise FileError(
                f"tuple number {tuple_no} out of range [0, {self._count})"
            )
        page_no, index = divmod(tuple_no, self.records_per_page)
        return page_no, index * self.record_size

    # -- modification ----------------------------------------------------------

    def append(self, row: tuple) -> int:
        """Append one row; returns its tuple number."""
        self.append_many([row])
        return self._count - 1

    def append_many(self, rows: Iterable[tuple]) -> None:
        """Bulk append row tuples: taken whole before a page is touched
        (``rows`` may itself read through this pool), packed and checked
        as columns.  If the source raises midway, what it had yielded is
        stored and counted."""
        taken: list[tuple] = []
        try:
            taken.extend(rows)
        finally:
            self.append_records(self.schema.codec.pack_columns(fact_columns(taken)))

    def append_records(self, records: np.ndarray) -> None:
        """Append packed records (``schema.codec.pack_columns``): one
        slice copy per page, the metadata written once at the end."""
        if records.dtype != self.schema.codec.dtype:
            raise FileError("records are not packed for this table's schema")
        raw = memoryview(records.view(np.uint8))
        size, per_page = self.record_size, self.records_per_page
        done = 0
        while done < len(records):
            page_no, index = divmod(self._count, per_page)
            take = min(per_page - index, len(records) - done)
            if page_no == self._file.npages:
                self._file.append_page()
            buf = self._file.read(page_no)
            self._file.mark_dirty(page_no)
            buf[index * size : (index + take) * size] = raw[
                done * size : (done + take) * size
            ]
            self._count += take
            done += take
        self._store_meta()

    def update(self, tuple_no: int, row: tuple) -> None:
        """Overwrite one row in place (records are fixed length)."""
        page_no, offset = self._locate(tuple_no)
        buf = self._file.read(page_no)
        self.schema.codec.pack_into(buf, offset, row)
        self._file.mark_dirty(page_no)

    # -- access -------------------------------------------------------------------

    def get(self, tuple_no: int) -> tuple:
        """Fetch one row by tuple number (the bitmap fast path)."""
        page_no, offset = self._locate(tuple_no)
        self.counters.add("fact_tuple_gets")
        return self.schema.codec.unpack_from(self._file.read(page_no), offset)

    def scan(self) -> Iterator[tuple]:
        """Yield every row in tuple-number order, one page at a time."""
        codec = self.schema.codec
        remaining = self._count
        for page_no in range(self._file.npages):
            in_page = min(self.records_per_page, remaining)
            if in_page <= 0:
                return
            buf = self._file.read(page_no)
            self.counters.add("fact_pages_scanned")
            yield from codec.iter_unpack(buf, in_page)
            remaining -= in_page

    def records(self) -> np.ndarray:
        """Every stored record as one ``schema.codec.dtype`` array, in
        tuple-number order: one slice copy per page, the inverse of
        :meth:`append_records` (``schema.codec.unpack_columns`` splits
        it into columns)."""
        records = np.empty(self._count, dtype=self.schema.codec.dtype)
        raw = memoryview(records.view(np.uint8))
        size, per_page = self.record_size, self.records_per_page
        for page_no, done in enumerate(range(0, self._count, per_page)):
            take = min(per_page, self._count - done) * size
            raw[done * size : done * size + take] = memoryview(
                self._file.read(page_no)
            )[:take]
            self.counters.add("fact_pages_scanned")
        return records

    def find(self, keys: tuple) -> int | None:
        """Tuple number of the first row whose leading fields equal
        ``keys``, or ``None``: each page compared as one record array."""
        codec = self.schema.codec
        names = codec.dtype.names[: len(keys)]
        wanted = []
        for name, key in zip(names, keys):
            if (codec.dtype[name].kind == "S") != isinstance(key, str):
                return None  # as in a tuple compare, "1" is not 1
            wanted.append(key.encode("utf-8") if isinstance(key, str) else key)
        remaining = self._count
        for page_no in range(self._file.npages):
            in_page = min(self.records_per_page, remaining)
            if in_page <= 0:
                break
            page = np.frombuffer(self._file.read(page_no), codec.dtype, in_page)
            self.counters.add("fact_pages_scanned")
            match = np.ones(in_page, dtype=bool)
            for name, key in zip(names, wanted):
                match &= page[name] == key
            hits = np.flatnonzero(match)
            if hits.size:
                return page_no * self.records_per_page + int(hits[0])
            remaining -= in_page
        return None

    def fetch_bitmap(self, bits: Bitset) -> list[np.ndarray]:
        """The rows at set bit positions, in position order, as one
        column per field (``schema.codec.unpack_columns``).

        Positions are grouped by page so each page is read once — the
        "interface that takes a bitmap and retrieves the tuples
        corresponding to non-zero bit positions" of §4.4 — and each page
        is taken as one record array, whose selected slots are copied
        out together.
        """
        if len(bits) != self._count:
            raise FileError(
                f"bitmap covers {len(bits)} positions, table has {self._count}"
            )
        codec = self.schema.codec
        pages, slots = np.divmod(bits.set_positions(), self.records_per_page)
        records = np.empty(len(pages), dtype=codec.dtype)
        bounds = [*np.flatnonzero(np.diff(pages, prepend=-1)).tolist(), len(pages)]
        for first, stop in zip(bounds, bounds[1:]):
            page = np.frombuffer(
                self._file.read(int(pages[first])), codec.dtype, self.records_per_page
            )
            records[first:stop] = page[slots[first:stop]]
        if len(pages):
            self.counters.add_many(
                {"fact_bitmap_pages": len(bounds) - 1, "fact_tuples_fetched": len(pages)}
            )
        return codec.unpack_columns(records)

    def __len__(self) -> int:
        return self._count

    def size_bytes(self) -> int:
        """On-disk footprint (extents plus the header page)."""
        return self._file.size_bytes()
