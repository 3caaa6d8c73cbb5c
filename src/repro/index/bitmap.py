"""Bitmap join indices over fact-table positions (§4.4).

A :class:`BitmapIndex` covers one attribute of one dimension, but over
the *fact table's* tuple positions: bit ``t`` of the bitmap for value
``v`` is set iff fact tuple ``t`` joins a dimension row whose attribute
equals ``v``.  This is the "join bitmap index" the paper creates ahead
of time on each selected attribute (§4.5).

Persistence: each value's bitset is one large object; the value → OID
directory is a B-tree.  Everything therefore lives on storage pages and
counts toward measured footprints.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import BitmapError
from repro.index.btree import BTree
from repro.storage.large_object import LargeObjectStore
from repro.storage.page_file import FileManager
from repro.util.bitset import Bitset
from repro.util.records import narrowest


def factorize(values: Iterable) -> tuple[list, np.ndarray]:
    """The distinct ``values`` ascending, and each value's index into them
    in the narrowest unsigned dtype that holds the label count."""
    values = list(values)
    labels = sorted(set(values))
    code_of = {label: code for code, label in enumerate(labels)}
    dtype = narrowest(len(labels), signed=False)
    codes = np.fromiter(map(code_of.__getitem__, values), dtype, len(values))
    return labels, codes


class BitmapIndex:
    """Per-value bitmaps for one attribute over a fixed position space."""

    def __init__(self, fm: FileManager, name: str, length: int):
        if length < 0:
            raise BitmapError(f"position space must be >= 0, got {length}")
        self.name = name
        self.length = length
        self._store = LargeObjectStore(fm, f"{name}.bitmaps")
        self._directory = (
            BTree.open(fm, f"{name}.dir")
            if fm.exists(f"{name}.dir")
            else BTree.create(fm, f"{name}.dir")
        )

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        fm: FileManager,
        name: str,
        length: int,
        position_values: Iterable,
    ) -> "BitmapIndex":
        """Build the index from the attribute value at every position.

        ``position_values`` yields the attribute value of position
        0, 1, 2, ... — i.e. for each fact tuple, the (joined) dimension
        attribute value.
        """
        return cls.build_coded(fm, name, length, *factorize(position_values))

    @classmethod
    def build_coded(
        cls,
        fm: FileManager,
        name: str,
        length: int,
        labels: list,
        codes: np.ndarray,
    ) -> "BitmapIndex":
        """:meth:`build` from a coded column: position ``t`` holds
        ``labels[codes[t]]``, ``labels`` ascending.  Each label that
        occurs becomes one stored bitmap."""
        if len(codes) != length:
            raise BitmapError(
                f"got {len(codes)} position values, expected {length}"
            )
        index = cls(fm, name, length)

        def entries():
            # each bitmap is stored just before its entry goes in, so the
            # directory's page appends interleave with the bitmaps' as
            # under one insert per entry: the same volume image
            for code, label in enumerate(labels):
                member = codes == code
                if member.any():
                    bits = Bitset.from_mask(member).to_bytes()
                    yield label, index._store.create(bits)

        index._directory.insert_many(entries())
        return index

    # -- lookup ------------------------------------------------------------------

    def values(self) -> list:
        """All distinct attribute values with a stored bitmap."""
        return [key for key, _ in self._directory.items()]

    def bitmap_for(self, value) -> Bitset:
        """The bitmap of one value (all-zero if the value is unknown)."""
        oids = self._directory.search(value)
        if not oids:
            return Bitset(self.length)
        return Bitset.from_bytes(self.length, self._store.read(oids[0]))

    def bitmap_for_range(self, low, high) -> Bitset:
        """OR of the bitmaps of every value in the inclusive range.

        Open bounds (``None``) are allowed; the value directory's
        B-tree range scan finds the qualifying values.
        """
        merged = Bitset(self.length)
        for _, oid in self._directory.range_search(low, high):
            merged.ior(Bitset.from_bytes(self.length, self._store.read(oid)))
        return merged

    def bitmap_for_any(self, values: Iterable) -> Bitset:
        """OR of the bitmaps of several values (an IN-list selection).

        This is the paper's "merge those index lists" step done on
        bitmaps: retrieve the bitmaps for the selected values of one
        dimension and OR them together.
        """
        merged = Bitset(self.length)
        for value in values:
            merged.ior(self.bitmap_for(value))
        return merged

    # -- footprint ----------------------------------------------------------------

    def footprint_bytes(self) -> int:
        """On-disk bytes: bitmap objects plus the value directory."""
        return self._store.footprint_bytes() + self._directory.size_bytes()
