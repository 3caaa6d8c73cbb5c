"""Per-dimension key ↔ array-index maps (§3.1).

Each dimension of the OLAP Array ADT carries a B-tree mapping the
dimension's key value (``pid``, ``sid``, ...) to its array index, plus
the reverse list (array index → key) used when materializing result
rows.  The forward map is a :class:`~repro.index.btree.BTree` on pages;
the reverse list is a serialized key list stored as one large object.
"""

from __future__ import annotations

import struct

from repro.errors import DimensionError
from repro.index.btree import BTree
from repro.storage.large_object import LargeObjectStore
from repro.storage.page_file import FileManager

_COUNT = struct.Struct("<I")
_INT_KEY = struct.Struct("<bq")
_STR_HEAD = struct.Struct("<bH")
_KIND_INT = 0
_KIND_STR = 1


def encode_keys(keys: list) -> bytes:
    """Serialize a list of int/str keys."""
    out = bytearray(_COUNT.pack(len(keys)))
    for key in keys:
        if isinstance(key, bool) or not isinstance(key, (int, str)):
            raise DimensionError(f"unsupported key type {type(key).__name__}")
        if isinstance(key, int):
            out += _INT_KEY.pack(_KIND_INT, key)
        else:
            raw = key.encode("utf-8")
            out += _STR_HEAD.pack(_KIND_STR, len(raw))
            out += raw
    return bytes(out)


def decode_keys(payload: bytes) -> list:
    """Inverse of :func:`encode_keys`."""
    (count,) = _COUNT.unpack_from(payload, 0)
    offset = _COUNT.size
    keys: list = []
    for _ in range(count):
        kind = payload[offset]
        if kind == _KIND_INT:
            _, key = _INT_KEY.unpack_from(payload, offset)
            offset += _INT_KEY.size
        elif kind == _KIND_STR:
            _, length = _STR_HEAD.unpack_from(payload, offset)
            offset += _STR_HEAD.size
            key = payload[offset : offset + length].decode("utf-8")
            offset += length
        else:
            raise DimensionError(f"corrupt key list (kind byte {kind})")
        keys.append(key)
    return keys


class DimensionIndex:
    """Key → array index (B-tree) and array index → key (stored list)."""

    def __init__(
        self,
        tree: BTree,
        aux: LargeObjectStore,
        rev_oid: int,
        keys: list | None = None,
    ):
        self._tree = tree
        self._aux = aux
        self.rev_oid = rev_oid
        self._keys = keys if keys is not None else decode_keys(aux.read(rev_oid))
        self._map = {key: i for i, key in enumerate(self._keys)}

    @classmethod
    def build(
        cls, fm: FileManager, aux: LargeObjectStore, name: str, keys: list
    ) -> "DimensionIndex":
        """Assign indices 0..n-1 to distinct ``keys`` in order and persist both maps."""
        tree = BTree.build(fm, name, zip(keys, range(len(keys))))
        rev_oid = aux.create(encode_keys(keys))
        return cls(tree, aux, rev_oid, keys=list(keys))

    @classmethod
    def open(
        cls, fm: FileManager, aux: LargeObjectStore, name: str, rev_oid: int
    ) -> "DimensionIndex":
        """Re-open a previously built dimension index."""
        return cls(BTree.open(fm, name), aux, rev_oid)

    def __len__(self) -> int:
        return len(self._keys)

    def index_of(self, key) -> int:
        """Array index of a dimension key, via the B-tree (§4.1 phase 1)."""
        hits = self._tree.search(key)
        if not hits:
            raise DimensionError(f"unknown dimension key {key!r}")
        return hits[0]

    def index_map(self) -> dict:
        """The whole key → index mapping (for bulk loading)."""
        return dict(self._map)

    def range_of(self, low, high) -> list[int]:
        """Array indices of keys in the inclusive range (open bounds OK)."""
        return [index for _, index in self._tree.range_search(low, high)]

    def key_of(self, index: int):
        """Dimension key at an array index."""
        if not 0 <= index < len(self._keys):
            raise DimensionError(
                f"array index {index} out of range [0, {len(self._keys)})"
            )
        return self._keys[index]

    def keys(self) -> list:
        """All keys in array-index order."""
        return list(self._keys)

    def footprint_bytes(self) -> int:
        """On-disk bytes of the B-tree (the reverse list is in the aux store)."""
        return self._tree.size_bytes()
