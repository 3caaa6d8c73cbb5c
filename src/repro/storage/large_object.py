"""Large-object store: SHORE's role for array chunks.

Each chunk of a Paradise multi-dimensional array is "stored as a SHORE
large object" (§3.1).  A :class:`LargeObjectStore` provides that
service: variable-length byte objects identified by a dense integer OID,
each laid out on a run of contiguous disk pages, with a page-resident
directory of ``(first_page, length)`` entries.

Objects created consecutively get consecutive page runs, so an array
whose chunks are created in chunk-number order is "laid out on the disk
in the same order as their chunk number order" (§4.2) — the property the
chunk-ordered cross-product scan exploits: :meth:`LargeObjectStore.read_many`
fetches a run of such objects with one pool call, one disk access cold.

Objects are mutable in place: :meth:`LargeObjectStore.write_at` patches
bytes inside an object's run (dirtying only the pages they cover, never
the directory), and :meth:`LargeObjectStore.rewrite` replaces a payload
that still needs the same number of pages.  Nothing is ever freed: a
payload that outgrows its run is stored anew and the old run is dead.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator

from repro.errors import FileError
from repro.storage.buffer_pool import BufferPool
from repro.storage.crashpoints import crash_point
from repro.storage.page_file import FileManager, PageFile

_DIR_ENTRY = struct.Struct("<qq")  # first_page_id, length
_META = struct.Struct("<q")  # object count


class LargeObjectStore:
    """Variable-length blobs on contiguous page runs, with a paged directory."""

    def __init__(self, file_manager: FileManager, name: str):
        self.pool: BufferPool = file_manager.pool
        self.page_size = self.pool.disk.page_size
        self._entries_per_page = self.page_size // _DIR_ENTRY.size
        if file_manager.exists(name):
            self._directory: PageFile = file_manager.open(name)
            (self._count,) = _META.unpack_from(self._directory.get_meta(), 0)
        else:
            self._directory = file_manager.create(name)
            self._count = 0
            self._directory.set_meta(_META.pack(0))

    def __len__(self) -> int:
        return self._count

    # -- directory access --------------------------------------------------------

    def _entry_location(self, oid: int) -> tuple[int, int]:
        page_no, index = divmod(oid, self._entries_per_page)
        return page_no, index * _DIR_ENTRY.size

    def _read_entry(self, oid: int) -> tuple[int, int]:
        if not 0 <= oid < self._count:
            raise FileError(f"OID {oid} out of range [0, {self._count})")
        page_no, offset = self._entry_location(oid)
        buf = self._directory.read(page_no)
        return _DIR_ENTRY.unpack_from(buf, offset)

    def _write_entry(self, oid: int, first_page: int, length: int) -> None:
        page_no, offset = self._entry_location(oid)
        self._directory.ensure_pages(page_no + 1)
        buf = self._directory.read(page_no)
        _DIR_ENTRY.pack_into(buf, offset, first_page, length)
        self._directory.mark_dirty(page_no)

    # -- object operations ----------------------------------------------------------

    def _data_pages(self, length: int) -> int:
        return max(1, -(-length // self.page_size))

    def create(self, payload: bytes) -> int:
        """Store a new object; returns its OID."""
        # Reserve the directory page first so directory extents never
        # interleave with object data: objects created back to back then
        # occupy consecutive disk pages (the §4.2 sequential-chunk layout).
        dir_page, _ = self._entry_location(self._count)
        self._directory.ensure_pages(dir_page + 1)
        npages = self._data_pages(len(payload))
        first = self.pool.disk.allocate(npages)
        crash_point("lob.write")
        for i in range(npages):
            start = i * self.page_size
            piece = payload[start : start + self.page_size]
            image = piece + bytes(self.page_size - len(piece))
            self.pool.write(first + i, image)
        oid = self._count
        self._write_entry(oid, first, len(payload))
        self._count += 1
        self._directory.set_meta(_META.pack(self._count))
        return oid

    def write_at(self, oid: int, at: int, data: bytes) -> None:
        """Overwrite bytes ``[at, at + len(data))`` of an object in place.

        Only the pages those bytes occupy are dirtied (one, or two when
        they straddle a page boundary); the directory is not touched.
        """
        first, length = self._read_entry(oid)
        if not 0 <= at <= at + len(data) <= length:
            raise FileError(
                f"write of {len(data)} bytes at {at} is outside OID {oid}'s "
                f"{length} bytes"
            )
        crash_point("lob.write_at")
        page_no, skip = divmod(at, self.page_size)
        done = 0
        while done < len(data):
            take = min(self.page_size - skip, len(data) - done)
            buf = self.pool.get(first + page_no)
            buf[skip : skip + take] = data[done : done + take]
            self.pool.mark_dirty(first + page_no)
            done += take
            page_no += 1
            skip = 0

    def rewrite(self, oid: int, payload: bytes) -> bool:
        """Replace an object's payload inside its own page run.

        Returns ``False``, writing nothing, when the payload needs a
        different number of pages than the run holds.
        """
        first, length = self._read_entry(oid)
        if self._data_pages(len(payload)) != self._data_pages(length):
            return False
        if len(payload) != length:
            self._write_entry(oid, first, len(payload))
        self.write_at(oid, 0, payload)
        return True

    def read(self, oid: int) -> bytes:
        """Fetch an object's full payload."""
        (payload,) = self._joined([oid], [0])
        return payload

    def read_many(
        self, oids: list[int], leads: list[int]
    ) -> Iterator[memoryview]:
        """Each object's payload in turn, as a read-only view of a
        private joined copy that starts ``leads[i]`` bytes into it (the
        caller picks the lead that aligns what it views the payload as).

        Defined as the loop of :meth:`read` over ``oids``, and lazy:
        a run of consecutive OIDs whose directory entries share a page,
        whose page runs are adjacent and which fits the pool without
        eviction is fetched by one :meth:`BufferPool.get_runs` when its
        first payload is asked for; each payload is joined when it is
        yielded.  A fault in a later object of a run fails the whole run
        before any of it is installed.
        """
        for joined, lead in zip(self._joined(oids, leads), leads):
            yield memoryview(joined)[lead:]

    def _joined(self, oids: list[int], leads: list[int]) -> Iterator[bytes]:
        """The objects' payloads, each joined behind its lead's zero bytes."""
        page_size = self.page_size
        i = 0
        while i < len(oids):
            oid = oids[i]
            if not 0 <= oid < self._count:
                raise FileError(f"OID {oid} out of range [0, {self._count})")
            page_no, offset = self._entry_location(oid)
            buf = self._directory.read(page_no)
            first, length = _DIR_ENTRY.unpack_from(buf, offset)
            runs = [(first, self._data_pages(length))]
            lengths = [length]
            # grow the run while the next OID's entry is on this page, its
            # pages follow on and the pool has a free frame for each
            end = first + runs[0][1]
            room = (
                self.pool.capacity_frames - self.pool.resident_pages() - runs[0][1]
            )
            j = i + 1
            while j < len(oids) and oids[j] == oid + j - i < self._count:
                next_page, offset = self._entry_location(oids[j])
                if next_page != page_no:
                    break
                first, length = _DIR_ENTRY.unpack_from(buf, offset)
                npages = self._data_pages(length)
                if first != end or npages > room:
                    break
                runs.append((first, npages))
                lengths.append(length)
                end += npages
                room -= npages
                j += 1
            pages = self.pool.get_runs(runs, self._directory.page_id(page_no))
            start = 0
            for (_, npages), length, lead in zip(runs, lengths, leads[i:j]):
                tail = length - (npages - 1) * page_size
                # only the last page is padded: a view trimmed to the
                # payload's tail, so the join is the one copy it gets
                yield b"".join(
                    (
                        bytes(lead),
                        *pages[start : start + npages - 1],
                        memoryview(pages[start + npages - 1])[:tail],
                    )
                )
                start += npages
            i = j

    def length(self, oid: int) -> int:
        """Stored payload length of an object."""
        return self._read_entry(oid)[1]

    def object_pages(self, oid: int) -> int:
        """Number of disk pages the object occupies."""
        return self._data_pages(self._read_entry(oid)[1])

    def first_page(self, oid: int) -> int:
        """Physical id of the object's first page (layout inspection)."""
        return self._read_entry(oid)[0]

    # -- footprint ------------------------------------------------------------------

    def data_bytes(self) -> int:
        """Sum of stored payload lengths."""
        return sum(self._read_entry(oid)[1] for oid in range(self._count))

    def footprint_bytes(self) -> int:
        """On-disk footprint: data page runs plus the directory file."""
        data = sum(
            self._data_pages(self._read_entry(oid)[1]) for oid in range(self._count)
        )
        return data * self.page_size + self._directory.size_bytes()
