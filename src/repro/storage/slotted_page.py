"""Slot-directory page layout for variable-length records.

This is the "standard relational" page format that §4.4 contrasts the
fact file against: each page carries a slot directory growing forward
from the header while record payloads grow backward from the tail.  The
per-record cost is the 4-byte slot entry plus the page header — the
space overhead the fact file exists to eliminate (ablation ``abl4``).

The class wraps a page buffer (a buffer-pool frame) and edits it in
place; callers mark the frame dirty.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator

import numpy as np

from repro.errors import PageError

_HEADER = struct.Struct("<HH")  # nslots, free_end
_SLOT = struct.Struct("<HH")  # offset, length
_DELETED = 0xFFFF


class SlottedPage:
    """In-place editor for one slotted page image."""

    def __init__(self, buffer: bytearray):
        self.buffer = buffer

    @classmethod
    def format(cls, buffer: bytearray) -> "SlottedPage":
        """Initialize an empty slotted page over ``buffer``."""
        page = cls(buffer)
        _HEADER.pack_into(buffer, 0, 0, len(buffer))
        return page

    # -- header helpers ---------------------------------------------------------

    def _header(self) -> tuple[int, int]:
        return _HEADER.unpack_from(self.buffer, 0)

    def _set_header(self, nslots: int, free_end: int) -> None:
        _HEADER.pack_into(self.buffer, 0, nslots, free_end)

    def _slot(self, slot: int) -> tuple[int, int]:
        nslots, _ = self._header()
        if not 0 <= slot < nslots:
            raise PageError(f"slot {slot} out of range [0, {nslots})")
        return _SLOT.unpack_from(self.buffer, _HEADER.size + slot * _SLOT.size)

    def _set_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(
            self.buffer, _HEADER.size + slot * _SLOT.size, offset, length
        )

    # -- record operations ------------------------------------------------------------

    @property
    def nslots(self) -> int:
        """Number of slots ever allocated on this page (including deleted)."""
        return self._header()[0]

    def free_space(self) -> int:
        """Bytes available for one more record (payload + slot entry)."""
        nslots, free_end = self._header()
        directory_end = _HEADER.size + nslots * _SLOT.size
        gap = free_end - directory_end
        return max(0, gap - _SLOT.size)

    def insert(self, payload: bytes) -> int | None:
        """Insert a record; returns its slot, or ``None`` if it does not fit."""
        if len(payload) >= _DELETED:
            raise PageError(f"record of {len(payload)} bytes exceeds page format")
        nslots, free_end = self._header()
        directory_end = _HEADER.size + (nslots + 1) * _SLOT.size
        new_free_end = free_end - len(payload)
        if new_free_end < directory_end:
            return None
        self.buffer[new_free_end:free_end] = payload
        self._set_header(nslots + 1, new_free_end)
        self._set_slot(nslots, new_free_end, len(payload))
        return nslots

    def get(self, slot: int) -> bytes:
        """Payload of a slot; raises on deleted slots."""
        offset, length = self._slot(slot)
        if offset == _DELETED:
            raise PageError(f"slot {slot} is deleted")
        return bytes(self.buffer[offset : offset + length])

    def delete(self, slot: int) -> None:
        """Mark a slot deleted (space is not compacted)."""
        offset, _ = self._slot(slot)
        if offset == _DELETED:
            raise PageError(f"slot {slot} already deleted")
        self._set_slot(slot, _DELETED, 0)

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(slot, payload)`` for every live record."""
        nslots, _ = self._header()
        for slot in range(nslots):
            offset, length = self._slot(slot)
            if offset != _DELETED:
                yield slot, bytes(self.buffer[offset : offset + length])

    def fixed_records(self, dtype: np.dtype) -> np.ndarray:
        """:meth:`records` gathered at once, each payload one ``dtype`` record."""
        slots = np.frombuffer(self.buffer, "<u2", 2 * self.nslots, _HEADER.size)
        live = slots[0::2][slots[0::2] != _DELETED].astype(np.intp)
        at = live[:, None] + np.arange(dtype.itemsize)
        return np.frombuffer(self.buffer, np.uint8)[at].view(dtype).reshape(-1)
