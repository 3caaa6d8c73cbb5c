"""Chunk codecs, led by §3.3's chunk-offset compression.

A chunk's logical content is a set of valid cells: a sorted ``int32``
array of offsets-in-chunk plus a ``(count, p)`` value matrix (``p``
measures per cell, all of one dtype).  Codecs turn that into bytes and
back; every payload starts with a one-byte codec tag so a stored chunk
is self-describing.  :func:`decode_chunk` hands out both arrays
aligned and read-only, so no kernel that reads them copies them.  A
chunk-offset payload that its reader joined behind the lead
:func:`payload_lead` names is decoded as views of that private copy;
only a misaligned buffer (a bare ``encode()`` result) is copied.

- :class:`ChunkOffsetCodec` — the paper's format: ``(offsetInChunk,
  data)`` pairs sorted by offset, enabling binary-search probes (§4.2).
- :class:`DenseCodec` — an uncompressed tile: validity bitmap plus one
  value slot per cell (what a plain Paradise array stores).
- :class:`LZWDenseCodec` — the dense tile run through LZW, Paradise's
  generic tile compression (§3.1).
- :class:`AdaptiveCodec` — picks dense above a density threshold,
  chunk-offset below (an extension the paper's storage analysis in
  §3.2 motivates).

The two uncompressed formats are *addressable*: :meth:`ChunkCodec.value_at`
names the byte where a stored cell's values start, so overwriting a
cell is a patch of ``8·p`` bytes at that position (§3.5's cell write)
rather than a re-encode.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import CompressionError
from repro.util.lzw import lzw_compress, lzw_decompress

_TAG_CHUNK_OFFSET = 1
_TAG_DENSE = 2
_TAG_LZW_DENSE = 3

_COUNT = struct.Struct("<I")

_DTYPES = {"int64": np.int64, "float64": np.float64}


def _np_dtype(dtype: str):
    try:
        return _DTYPES[dtype]
    except KeyError:
        raise CompressionError(
            f"unsupported measure dtype {dtype!r}; expected one of "
            f"{sorted(_DTYPES)}"
        ) from None


def _validate(offsets: np.ndarray, values: np.ndarray, chunk_cells: int) -> None:
    if offsets.ndim != 1 or values.ndim != 2:
        raise CompressionError("expected 1-D offsets and (count, p) values")
    if len(offsets) != len(values):
        raise CompressionError(
            f"{len(offsets)} offsets but {len(values)} value rows"
        )
    if len(offsets):
        if offsets.min() < 0 or offsets.max() >= chunk_cells:
            raise CompressionError("offset outside the chunk")
        if (np.diff(offsets) <= 0).any():
            raise CompressionError("offsets must be strictly increasing")


class ChunkCodec:
    """Base class; stateless encode/decode of one chunk."""

    name = "?"
    tag = 0

    def encode(
        self,
        offsets: np.ndarray,
        values: np.ndarray,
        chunk_cells: int,
        dtype: str,
    ) -> bytes:
        raise NotImplementedError

    def decode(
        self, payload: bytes, chunk_cells: int, n_measures: int, dtype: str
    ) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def value_at(
        self, offset: int, rank: int, count: int, chunk_cells: int, n_measures: int
    ) -> int | None:
        """Byte position of a stored cell's values in this codec's
        payload of ``count`` cells: the cell at ``offset`` in the chunk,
        ``rank``-th in offset order.  ``None``: not addressable."""
        return None


class ChunkOffsetCodec(ChunkCodec):
    """§3.3: sorted ``(offsetInChunk, data)`` pairs, valid cells only."""

    name = "chunk-offset"
    tag = _TAG_CHUNK_OFFSET

    def encode(self, offsets, values, chunk_cells, dtype):
        offsets = np.ascontiguousarray(offsets, dtype=np.int32)
        values = np.ascontiguousarray(values, dtype=_np_dtype(dtype))
        _validate(offsets, values, chunk_cells)
        return (
            bytes([self.tag])
            + _COUNT.pack(len(offsets))
            + offsets.tobytes()
            + values.tobytes()
        )

    def decode(self, payload, chunk_cells, n_measures, dtype):
        count = _COUNT.unpack_from(payload, 1)[0]
        start = 1 + _COUNT.size
        offsets = np.frombuffer(payload, np.int32, count, start)
        values = np.frombuffer(
            payload, _np_dtype(dtype), count * n_measures, start + 4 * count
        ).reshape(count, n_measures)
        if offsets.flags.aligned and values.flags.aligned:
            return offsets, values  # views: the payload sits behind its lead
        return np.array(offsets), np.array(values)  # a bare payload: copied once

    def value_at(self, offset, rank, count, chunk_cells, n_measures):
        return 1 + _COUNT.size + 4 * count + 8 * n_measures * rank


class DenseCodec(ChunkCodec):
    """Uncompressed tile: validity bitmap + one value slot per cell."""

    name = "dense"
    tag = _TAG_DENSE

    def _encode_body(self, offsets, values, chunk_cells, dtype):
        np_dtype = _np_dtype(dtype)
        valid = np.zeros(chunk_cells, dtype=np.uint8)
        valid[offsets] = 1
        slots = np.zeros((chunk_cells, values.shape[1]), dtype=np_dtype)
        slots[offsets] = values
        return np.packbits(valid, bitorder="little").tobytes() + slots.tobytes()

    def _decode_body(self, body, chunk_cells, n_measures, dtype):
        np_dtype = _np_dtype(dtype)
        nbitmap = (chunk_cells + 7) // 8
        valid = np.unpackbits(
            np.frombuffer(body, np.uint8, nbitmap), bitorder="little"
        )[:chunk_cells]
        slots = np.frombuffer(
            body, np_dtype, chunk_cells * n_measures, nbitmap
        ).reshape(chunk_cells, n_measures)
        offsets = np.nonzero(valid)[0].astype(np.int32)
        return offsets, slots[offsets]

    def encode(self, offsets, values, chunk_cells, dtype):
        offsets = np.ascontiguousarray(offsets, dtype=np.int32)
        values = np.ascontiguousarray(values, dtype=_np_dtype(dtype))
        _validate(offsets, values, chunk_cells)
        return bytes([self.tag]) + self._encode_body(
            offsets, values, chunk_cells, dtype
        )

    def decode(self, payload, chunk_cells, n_measures, dtype):
        return self._decode_body(payload[1:], chunk_cells, n_measures, dtype)

    def value_at(self, offset, rank, count, chunk_cells, n_measures):
        return 1 + (chunk_cells + 7) // 8 + 8 * n_measures * offset


class LZWDenseCodec(DenseCodec):
    """The dense tile run through LZW (Paradise's generic compression)."""

    name = "lzw-dense"
    tag = _TAG_LZW_DENSE

    def encode(self, offsets, values, chunk_cells, dtype):
        offsets = np.ascontiguousarray(offsets, dtype=np.int32)
        values = np.ascontiguousarray(values, dtype=_np_dtype(dtype))
        _validate(offsets, values, chunk_cells)
        body = self._encode_body(offsets, values, chunk_cells, dtype)
        return bytes([self.tag]) + lzw_compress(body)

    def decode(self, payload, chunk_cells, n_measures, dtype):
        body = lzw_decompress(payload[1:])
        return self._decode_body(body, chunk_cells, n_measures, dtype)

    value_at = ChunkCodec.value_at  # compressed: a cell has no position


class AdaptiveCodec(ChunkCodec):
    """Per-chunk choice: dense above ``dense_threshold`` density.

    §3.2 shows a dense array beats pairs when density exceeds
    ``p / (n + p)``-ish ratios; storing ``(offset, value)`` pairs costs
    ``4 + 8p`` bytes per valid cell while dense costs ``8p + 1/8``
    bytes per *logical* cell, so the break-even density is roughly
    ``8p / (4 + 8p)``.  The default threshold of ``2/3`` is the
    ``p = 1`` break-even.
    """

    name = "adaptive"
    tag = 0  # never written; delegates to a concrete codec

    def __init__(self, dense_threshold: float = 2 / 3):
        if not 0 < dense_threshold <= 1:
            raise CompressionError(
                f"dense_threshold must be in (0, 1], got {dense_threshold}"
            )
        self.dense_threshold = dense_threshold
        self._sparse = ChunkOffsetCodec()
        self._dense = DenseCodec()

    def _pick(self, count: int, chunk_cells: int) -> ChunkCodec:
        """The codec whose tag a chunk of ``count`` cells is stored under."""
        density = count / chunk_cells if chunk_cells else 0.0
        return self._dense if density >= self.dense_threshold else self._sparse

    def encode(self, offsets, values, chunk_cells, dtype):
        return self._pick(len(offsets), chunk_cells).encode(
            offsets, values, chunk_cells, dtype
        )

    def decode(self, payload, chunk_cells, n_measures, dtype):
        return decode_chunk(payload, chunk_cells, n_measures, dtype)

    def value_at(self, offset, rank, count, chunk_cells, n_measures):
        return self._pick(count, chunk_cells).value_at(
            offset, rank, count, chunk_cells, n_measures
        )


_BY_TAG: dict[int, ChunkCodec] = {
    codec.tag: codec
    for codec in (ChunkOffsetCodec(), DenseCodec(), LZWDenseCodec())
}
_BY_NAME: dict[str, ChunkCodec] = {
    c.name: c for c in (*_BY_TAG.values(), AdaptiveCodec())
}


def get_codec(name: str) -> ChunkCodec:
    """Codec by name (``chunk-offset``/``dense``/``lzw-dense``/``adaptive``)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise CompressionError(
            f"unknown codec {name!r}; expected one of {sorted(_BY_NAME)}"
        ) from None


def payload_lead(count: int) -> int:
    """Bytes to put before a stored payload of ``count`` cells so that
    a chunk-offset decode can view both arrays in place: the values
    start on an 8-byte boundary, the offsets then on a 4-byte one (the
    buffer the payload is joined into is itself 8-byte aligned)."""
    return -(1 + _COUNT.size + 4 * count) % 8


def decode_chunk(
    payload: bytes | memoryview, chunk_cells: int, n_measures: int, dtype: str
) -> tuple[np.ndarray, np.ndarray]:
    """Decode any tagged chunk payload regardless of which codec wrote it.

    Returns ``(offsets, values)``, both aligned and read-only.  A
    chunk-offset payload read behind its :func:`payload_lead` is viewed
    in place (the arrays share its buffer); any other is copied once.
    Every malformed payload surfaces as :class:`CompressionError`, never
    as a bare struct/numpy exception.
    """
    if not payload:
        raise CompressionError("empty chunk payload")
    codec = _BY_TAG.get(payload[0])
    if codec is None:
        raise CompressionError(f"unknown codec tag {payload[0]}")
    try:
        offsets, values = codec.decode(payload, chunk_cells, n_measures, dtype)
    except CompressionError:
        raise
    except (ValueError, struct.error, IndexError) as exc:
        raise CompressionError(f"corrupt {codec.name} chunk: {exc}") from exc
    if len(offsets) != len(values):
        raise CompressionError("corrupt chunk: offset/value count mismatch")
    # every codec hands out int32 offsets: a negative one reads as >= 2**31
    if len(offsets) and offsets.view(np.uint32).max() >= chunk_cells:
        raise CompressionError("corrupt chunk: offset outside the chunk")
    offsets.flags.writeable = values.flags.writeable = False
    return offsets, values
