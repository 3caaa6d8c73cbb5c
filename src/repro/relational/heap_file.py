"""Slotted-page heap files: the standard relational table layout.

Dimension tables are stored here.  Each record costs its payload plus a
4-byte slot entry and a share of the page header — the overhead §4.4's
fact file eliminates for the (much larger) fact table.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator, Sequence

import numpy as np

from repro.errors import FileError
from repro.relational.schema import Schema
from repro.storage.page_file import FileManager, PageFile
from repro.storage.slotted_page import SlottedPage

_META_HEAD = struct.Struct("<qH")  # tuple count, schema text length


class HeapFile:
    """A table of fixed-length records on slotted pages."""

    def __init__(self, pfile: PageFile, schema: Schema | None = None):
        self._file = pfile
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
                raise FileError("new heap file needs a schema")
            self.schema = schema
            self._count = 0
            self._store_meta()

    @classmethod
    def create(
        cls,
        fm: FileManager,
        name: str,
        schema: Schema,
        extent_pages: int = 16,
    ) -> "HeapFile":
        """Create an empty named table.

        ``extent_pages`` sets the allocation granularity; tiny lookup
        tables (snowflake levels) use 1 to avoid paying a whole extent.
        """
        return cls(fm.create(name, extent_pages=extent_pages), schema)

    @classmethod
    def open(cls, fm: FileManager, name: str) -> "HeapFile":
        """Open an existing table."""
        return cls(fm.open(name))

    def _store_meta(self) -> None:
        text = self.schema.to_text().encode()
        self._file.set_meta(_META_HEAD.pack(self._count, len(text)) + text)

    # -- modification --------------------------------------------------------

    def insert(self, row: tuple) -> tuple[int, int]:
        """Insert one row; returns its record id ``(page, slot)``."""
        payload = self.schema.codec.pack(row)
        if self._file.npages:
            last = self._file.npages - 1
            page = SlottedPage(self._file.read(last))
            slot = page.insert(payload)
            if slot is not None:
                self._file.mark_dirty(last)
                self._count += 1
                self._store_meta()
                return last, slot
        logical = self._file.append_page()
        page = SlottedPage.format(self._file.read(logical))
        slot = page.insert(payload)
        if slot is None:
            raise FileError(
                f"record of {len(payload)} bytes does not fit an empty page"
            )
        self._file.mark_dirty(logical)
        self._count += 1
        self._store_meta()
        return logical, slot

    def insert_many(self, rows) -> None:
        """Bulk insert without per-row metadata writes."""
        inserted = 0
        page_no = self._file.npages - 1 if self._file.npages else None
        page = SlottedPage(self._file.read(page_no)) if page_no is not None else None
        for row in rows:
            payload = self.schema.codec.pack(row)
            if page is None or page.insert(payload) is None:
                page_no = self._file.append_page()
                page = SlottedPage.format(self._file.read(page_no))
                if page.insert(payload) is None:
                    raise FileError(
                        f"record of {len(payload)} bytes does not fit a page"
                    )
            self._file.mark_dirty(page_no)
            inserted += 1
        self._count += inserted
        self._store_meta()

    def delete(self, rid: tuple[int, int]) -> None:
        """Delete one row by record id (slot space is not compacted)."""
        page_no, slot = rid
        page = SlottedPage(self._file.read(page_no))
        page.delete(slot)
        self._file.mark_dirty(page_no)
        self._count -= 1
        self._store_meta()

    def update(self, rid: tuple[int, int], row: tuple) -> tuple[int, int]:
        """Replace one row; returns its (possibly new) record id.

        Fixed-length records always fit back in place, but the
        delete + insert fallback keeps the method correct if a page had
        no room (e.g. after concurrent inserts).
        """
        page_no, slot = rid
        payload = self.schema.codec.pack(row)
        page = SlottedPage(self._file.read(page_no))
        page.get(slot)  # raises if the slot is already deleted
        page.delete(slot)
        new_slot = page.insert(payload)
        if new_slot is not None:
            self._file.mark_dirty(page_no)
            return page_no, new_slot
        self._file.mark_dirty(page_no)
        self._count -= 1
        return self.insert(row)

    # -- access ------------------------------------------------------------------

    def get(self, rid: tuple[int, int]) -> tuple:
        """Fetch one row by record id."""
        page_no, slot = rid
        page = SlottedPage(self._file.read(page_no))
        return self.schema.codec.unpack(page.get(slot))

    def scan(self) -> Iterator[tuple]:
        """Every row in physical order, read as :meth:`columns`."""
        return zip(*(column.tolist() for column in self.columns()))

    def columns(self, fields: Sequence[str] | None = None) -> list[np.ndarray]:
        """Every row as one column per field, in physical order: each
        page's records gathered, then one ``unpack_columns`` call.
        ``fields`` (column names, in the order wanted) decodes only those
        columns; every page is read either way."""
        codec = self.schema.codec
        records = [np.empty(0, codec.dtype)] + [
            SlottedPage(self._file.read(page_no)).fixed_records(codec.dtype)
            for page_no in range(self._file.npages)
        ]
        positions = (
            None if fields is None else [self.schema.index_of(f) for f in fields]
        )
        return codec.unpack_columns(np.concatenate(records), positions)

    def __len__(self) -> int:
        return self._count

    def size_bytes(self) -> int:
        """On-disk footprint including slotted-page overhead."""
        return self._file.size_bytes()
