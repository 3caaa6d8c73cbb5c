"""Packed fixed-length bitsets backed by numpy.

A :class:`Bitset` holds ``length`` bits packed into a ``uint64`` word
array.  It is the payload type of the bitmap join indices (§4.4/§4.5 of
the paper): one bitset per (attribute, value) pair, one bit per fact
table tuple position.

The hot operations are bitwise AND/OR across whole bitsets and the
enumeration of set positions; both run over the word array in bulk.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import BitmapError

_WORD_BITS = 64


def _n_words(length: int) -> int:
    return (length + _WORD_BITS - 1) // _WORD_BITS


class Bitset:
    """A fixed-length sequence of bits with bulk boolean operations."""

    __slots__ = ("_length", "_words")

    def __init__(self, length: int, words: np.ndarray | None = None):
        if length < 0:
            raise BitmapError(f"bitset length must be >= 0, got {length}")
        self._length = length
        if words is None:
            self._words = np.zeros(_n_words(length), dtype=np.uint64)
        else:
            if words.dtype != np.uint64 or words.shape != (_n_words(length),):
                raise BitmapError("backing words array has wrong dtype/shape")
            self._words = words

    # -- construction ---------------------------------------------------

    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> "Bitset":
        """Build a bitset of ``length`` bits with the given positions set."""
        bits = cls(length)
        idx = np.fromiter(indices, dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= length:
                raise BitmapError("bit index out of range")
            words, offsets = np.divmod(idx, _WORD_BITS)
            np.bitwise_or.at(
                bits._words, words, np.uint64(1) << offsets.astype(np.uint64)
            )
        return bits

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "Bitset":
        """The bitset whose bit ``t`` is ``mask[t]`` (a boolean array)."""
        bits = cls(len(mask))
        packed = np.packbits(mask, bitorder="little")
        bits._words.view(np.uint8)[: len(packed)] = packed
        return bits

    @classmethod
    def ones(cls, length: int) -> "Bitset":
        """A bitset with every bit set."""
        bits = cls(length)
        bits._words[:] = np.uint64(0xFFFFFFFFFFFFFFFF)
        bits._mask_tail()
        return bits

    @classmethod
    def from_bytes(cls, length: int, payload: bytes) -> "Bitset":
        """Deserialize a bitset previously produced by :meth:`to_bytes`."""
        expected = _n_words(length) * 8
        if len(payload) != expected:
            raise BitmapError(
                f"bitset payload is {len(payload)} bytes, expected {expected}"
            )
        words = np.frombuffer(payload, dtype=np.uint64).copy()
        return cls(length, words)

    # -- scalar access --------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def _check(self, position: int) -> None:
        if not 0 <= position < self._length:
            raise BitmapError(
                f"bit position {position} out of range [0, {self._length})"
            )

    def set(self, position: int) -> None:
        """Set one bit."""
        self._check(position)
        self._words[position // _WORD_BITS] |= np.uint64(1) << np.uint64(
            position % _WORD_BITS
        )

    def clear(self, position: int) -> None:
        """Clear one bit."""
        self._check(position)
        self._words[position // _WORD_BITS] &= ~(
            np.uint64(1) << np.uint64(position % _WORD_BITS)
        )

    def get(self, position: int) -> bool:
        """Return whether one bit is set."""
        self._check(position)
        word = self._words[position // _WORD_BITS]
        return bool((word >> np.uint64(position % _WORD_BITS)) & np.uint64(1))

    __getitem__ = get

    # -- bulk boolean algebra --------------------------------------------

    def _require_same_length(self, other: "Bitset") -> None:
        if self._length != other._length:
            raise BitmapError(
                f"bitset length mismatch: {self._length} vs {other._length}"
            )

    def __and__(self, other: "Bitset") -> "Bitset":
        self._require_same_length(other)
        return Bitset(self._length, self._words & other._words)

    def __or__(self, other: "Bitset") -> "Bitset":
        self._require_same_length(other)
        return Bitset(self._length, self._words | other._words)

    def __xor__(self, other: "Bitset") -> "Bitset":
        self._require_same_length(other)
        return Bitset(self._length, self._words ^ other._words)

    def __invert__(self) -> "Bitset":
        flipped = Bitset(self._length, ~self._words)
        flipped._mask_tail()
        return flipped

    def iand(self, other: "Bitset") -> None:
        """In-place AND (used by the bitmap selection inner loop)."""
        self._require_same_length(other)
        self._words &= other._words

    def ior(self, other: "Bitset") -> None:
        """In-place OR (merging per-value bitmaps of one dimension)."""
        self._require_same_length(other)
        self._words |= other._words

    def _mask_tail(self) -> None:
        tail = self._length % _WORD_BITS
        if tail and self._words.size:
            self._words[-1] &= (np.uint64(1) << np.uint64(tail)) - np.uint64(1)

    # -- inspection -------------------------------------------------------

    def count(self) -> int:
        """Number of set bits."""
        return int(np.bitwise_count(self._words).sum())

    def any(self) -> bool:
        """Whether at least one bit is set."""
        return bool(self._words.any())

    def set_positions(self) -> np.ndarray:
        """All set positions as a sorted ``int64`` array.

        While at most half the words are nonzero (a selective AND's
        result) only those are unpacked; otherwise every word is, which
        spares each set bit the arithmetic naming its word.
        """
        words = self._words
        if 2 * np.count_nonzero(words) > len(words):
            bits = np.unpackbits(words.view(np.uint8), bitorder="little")
            return np.flatnonzero(bits[: self._length]).astype(np.int64, copy=False)
        nonzero = np.flatnonzero(words)
        at = np.flatnonzero(
            np.unpackbits(words[nonzero].view(np.uint8), bitorder="little")
        )
        word, bit = np.divmod(at, _WORD_BITS)
        positions = nonzero[word] * _WORD_BITS + bit
        return positions[: np.searchsorted(positions, self._length)].astype(
            np.int64, copy=False
        )

    def __iter__(self) -> Iterator[int]:
        return iter(self.set_positions().tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitset):
            return NotImplemented
        return self._length == other._length and bool(
            np.array_equal(self._words, other._words)
        )

    def __hash__(self):  # bitsets are mutable
        raise TypeError("Bitset is unhashable")

    def to_bytes(self) -> bytes:
        """Serialize to the word array's little-endian bytes."""
        return self._words.tobytes()

    def nbytes(self) -> int:
        """Serialized size in bytes."""
        return self._words.size * 8

    def __repr__(self) -> str:
        return f"Bitset(length={self._length}, set={self.count()})"
