"""§3.4 IndexToIndex arrays: the array form of dimension hierarchies.

For a dimension attribute (a hierarchy level), the IndexToIndex array
maps each input array index to the result array index of that level:
``mapping[m] = c`` means the m-th distinct key of the dimension maps to
the c-th distinct value of the attribute.  The paper's city → state
example: slot 10344 holds 47.

Result indices are assigned by first appearance in dimension-key order,
and the distinct attribute values (the result dimension's keys) are
stored alongside the mapping.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.core.dimension_index import decode_keys, encode_keys
from repro.errors import DimensionError

_HEAD = struct.Struct("<I")


class IndexToIndex:
    """Mapping array plus the target level's distinct values."""

    def __init__(self, mapping: np.ndarray, target_keys: list):
        mapping = np.ascontiguousarray(mapping, dtype=np.int32)
        if mapping.ndim != 1:
            raise DimensionError("IndexToIndex mapping must be 1-D")
        if mapping.size and (
            mapping.min() < 0 or mapping.max() >= len(target_keys)
        ):
            raise DimensionError("IndexToIndex mapping out of target range")
        self.mapping = mapping
        self.target_keys = list(target_keys)
        self._labels: np.ndarray | None = None
        self._ascending: bool | None = None

    @classmethod
    def build(cls, attribute_values: list) -> "IndexToIndex":
        """From the attribute value of every dimension key, in index order."""
        distinct: dict = {}
        mapping = np.empty(len(attribute_values), dtype=np.int32)
        for index, value in enumerate(attribute_values):
            target = distinct.get(value)
            if target is None:
                target = len(distinct)
                distinct[value] = target
            mapping[index] = target
        return cls(mapping, list(distinct))

    @classmethod
    def identity(cls, keys: list) -> "IndexToIndex":
        """Group by the key attribute itself (every index maps to itself)."""
        return cls(np.arange(len(keys), dtype=np.int32), list(keys))

    @classmethod
    def collapse(cls, size: int) -> "IndexToIndex":
        """Aggregate a dimension away: every index maps to one group."""
        return cls(np.zeros(size, dtype=np.int32), ["*"])

    def __len__(self) -> int:
        return int(self.mapping.size)

    @property
    def target_size(self) -> int:
        """Number of groups at the target level."""
        return len(self.target_keys)

    @property
    def labels(self) -> np.ndarray:
        """The target keys as a 1-D object array, to gather by result index."""
        if self._labels is None:
            self._labels = np.fromiter(
                self.target_keys, dtype=object, count=len(self.target_keys)
            )
        return self._labels

    @property
    def keys_ascend(self) -> bool:
        """Whether the target keys strictly ascend, so that result-index
        order is key order.  Keys are numbered by first appearance, so a
        level need not (``"AA10" < "AA2"``)."""
        if self._ascending is None:
            keys = self.target_keys
            try:
                self._ascending = all(a < b for a, b in zip(keys, keys[1:]))
            except TypeError:  # keys of mixed types have no order
                self._ascending = False
        return self._ascending

    def __getitem__(self, index: int) -> int:
        return int(self.mapping[index])

    def compose(self, finer_to_self: "IndexToIndex") -> "IndexToIndex":
        """Chain two hierarchy steps (city→state then state→region)."""
        if finer_to_self.target_size != len(self):
            raise DimensionError(
                "composition mismatch: inner targets "
                f"{finer_to_self.target_size} groups, outer covers {len(self)}"
            )
        return IndexToIndex(
            self.mapping[finer_to_self.mapping], self.target_keys
        )

    # -- persistence -------------------------------------------------------

    def to_blob(self) -> bytes:
        """Serialize for the ADT's aux large-object store."""
        return (
            _HEAD.pack(self.mapping.size)
            + self.mapping.tobytes()
            + encode_keys(self.target_keys)
        )

    @classmethod
    def from_blob(cls, payload: bytes) -> "IndexToIndex":
        """Inverse of :meth:`to_blob`."""
        (size,) = _HEAD.unpack_from(payload, 0)
        mapping = np.frombuffer(payload, np.int32, size, _HEAD.size).copy()
        target_keys = decode_keys(payload[_HEAD.size + 4 * size :])
        return cls(mapping, target_keys)
