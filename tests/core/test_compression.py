"""Unit and property tests for chunk codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AdaptiveCodec,
    ChunkOffsetCodec,
    DenseCodec,
    LZWDenseCodec,
    get_codec,
)
from repro.core.compression import decode_chunk, payload_lead
from repro.errors import CompressionError

CELLS = 64


def make_chunk(offsets, values, p=1):
    off = np.array(offsets, dtype=np.int32)
    val = np.array(values, dtype=np.int64).reshape(len(offsets), p)
    return off, val


ALL_CODECS = [ChunkOffsetCodec(), DenseCodec(), LZWDenseCodec()]


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
class TestRoundtrip:
    def test_simple(self, codec):
        off, val = make_chunk([0, 5, 63], [10, 20, 30])
        payload = codec.encode(off, val, CELLS, "int64")
        off2, val2 = codec.decode(payload, CELLS, 1, "int64")
        assert off2.tolist() == [0, 5, 63]
        assert val2.ravel().tolist() == [10, 20, 30]

    def test_decodes_to_aligned_owned_read_only_arrays(self, codec):
        off = np.array([0, 5, 63], dtype=np.int32)
        val = np.arange(6, dtype=np.int64).reshape(3, 2)
        payload = codec.encode(off, val, CELLS, "int64")
        offsets, values = decode_chunk(payload, CELLS, 2, "int64")
        for array in (offsets, values):
            assert array.flags.aligned and array.flags.owndata
            with pytest.raises(ValueError):
                array[0] = 1
        assert offsets.tolist() == off.tolist()
        assert values.tolist() == val.tolist()

    def test_empty_chunk(self, codec):
        off, val = make_chunk([], [])
        payload = codec.encode(off, val, CELLS, "int64")
        off2, val2 = codec.decode(payload, CELLS, 1, "int64")
        assert len(off2) == 0 and val2.shape == (0, 1)

    def test_full_chunk(self, codec):
        off, val = make_chunk(list(range(CELLS)), list(range(CELLS)))
        payload = codec.encode(off, val, CELLS, "int64")
        off2, val2 = codec.decode(payload, CELLS, 1, "int64")
        assert off2.tolist() == list(range(CELLS))
        assert val2.ravel().tolist() == list(range(CELLS))

    def test_multi_measure(self, codec):
        off = np.array([3, 9], dtype=np.int32)
        val = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64)
        payload = codec.encode(off, val, CELLS, "int64")
        off2, val2 = codec.decode(payload, CELLS, 3, "int64")
        assert val2.tolist() == [[1, 2, 3], [4, 5, 6]]

    def test_float_measures(self, codec):
        off = np.array([1], dtype=np.int32)
        val = np.array([[2.5]], dtype=np.float64)
        payload = codec.encode(off, val, CELLS, "float64")
        _, val2 = codec.decode(payload, CELLS, 1, "float64")
        assert val2[0, 0] == 2.5

    def test_tagged_decode(self, codec):
        off, val = make_chunk([7], [70])
        payload = codec.encode(off, val, CELLS, "int64")
        off2, val2 = decode_chunk(payload, CELLS, 1, "int64")
        assert off2.tolist() == [7] and val2[0, 0] == 70


def behind_lead(payload, count):
    """``payload`` joined behind the lead a reader puts before it: a
    view of the payload's bytes inside a private buffer."""
    lead = payload_lead(count)
    joined = bytes(lead) + payload
    return joined, memoryview(joined)[lead:]


class TestViewsBehindTheLead:
    """A chunk-offset payload read behind its lead decodes in place."""

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 8, 9])
    @pytest.mark.parametrize("p", [1, 2])
    def test_views_are_aligned_read_only_and_share_the_buffer(self, count, p):
        off = np.arange(count, dtype=np.int32) * 3
        val = np.arange(count * p, dtype=np.int64).reshape(count, p)
        joined, payload = behind_lead(
            ChunkOffsetCodec().encode(off, val, CELLS, "int64"), count
        )
        offsets, values = decode_chunk(payload, CELLS, p, "int64")
        buffer = np.frombuffer(joined, np.uint8)
        for array in (offsets, values):
            assert array.flags.aligned and not array.flags.owndata
            assert count == 0 or np.shares_memory(array, buffer)
            with pytest.raises(ValueError):
                array[...] = 0
        assert offsets.tolist() == off.tolist()
        assert values.tolist() == val.tolist()

    def test_a_bare_payload_is_copied_once_into_aligned_arrays(self):
        off, val = make_chunk([1, 2, 3], [4, 5, 6])  # odd: both misaligned
        payload = ChunkOffsetCodec().encode(off, val, CELLS, "int64")
        offsets, values = decode_chunk(payload, CELLS, 1, "int64")
        assert offsets.flags.aligned and offsets.flags.owndata
        assert values.flags.aligned and values.flags.owndata

    @pytest.mark.parametrize("count", [1, 2])
    def test_corrupt_payloads_behind_the_lead_still_raise(self, count):
        off = np.arange(count, dtype=np.int32)
        val = np.ones((count, 1), dtype=np.int64)
        payload = ChunkOffsetCodec().encode(off, val, CELLS, "int64")
        _, truncated = behind_lead(payload[:-1], count)
        _, bad_tag = behind_lead(b"\x09" + payload[1:], count)
        outside = bytearray(payload)
        outside[5:9] = np.int32(CELLS).tobytes()  # the first offset
        _, out_of_range = behind_lead(bytes(outside), count)
        outside[5:9] = np.int32(-1).tobytes()  # reads as 2**32 - 1 unsigned
        _, negative = behind_lead(bytes(outside), count)
        # a bare negative payload takes the copying path
        for corrupt in (truncated, bad_tag, out_of_range, negative, bytes(outside)):
            with pytest.raises(CompressionError):
                decode_chunk(corrupt, CELLS, 1, "int64")

    @pytest.mark.parametrize(
        "codec", [DenseCodec(), LZWDenseCodec()], ids=lambda c: c.name
    )
    def test_the_other_codecs_decode_owned_arrays_either_way(self, codec):
        off, val = make_chunk([0, 5, 63], [10, 20, 30])
        payload = codec.encode(off, val, CELLS, "int64")
        _, viewed = behind_lead(payload, len(off))
        for source in (payload, viewed):
            offsets, values = decode_chunk(source, CELLS, 1, "int64")
            assert offsets.flags.owndata and values.flags.owndata
            assert offsets.tolist() == [0, 5, 63]
            assert values.ravel().tolist() == [10, 20, 30]


class TestValidation:
    def test_unsorted_offsets_rejected(self):
        off, val = make_chunk([5, 3], [1, 2])
        with pytest.raises(CompressionError):
            ChunkOffsetCodec().encode(off, val, CELLS, "int64")

    def test_duplicate_offsets_rejected(self):
        off, val = make_chunk([3, 3], [1, 2])
        with pytest.raises(CompressionError):
            ChunkOffsetCodec().encode(off, val, CELLS, "int64")

    def test_offset_out_of_chunk_rejected(self):
        off, val = make_chunk([CELLS], [1])
        with pytest.raises(CompressionError):
            DenseCodec().encode(off, val, CELLS, "int64")

    def test_count_mismatch_rejected(self):
        off = np.array([1, 2], dtype=np.int32)
        val = np.array([[1]], dtype=np.int64)
        with pytest.raises(CompressionError):
            ChunkOffsetCodec().encode(off, val, CELLS, "int64")

    def test_bad_dtype_rejected(self):
        off, val = make_chunk([1], [1])
        with pytest.raises(CompressionError):
            ChunkOffsetCodec().encode(off, val, CELLS, "int16")

    def test_unknown_tag_rejected(self):
        with pytest.raises(CompressionError):
            decode_chunk(b"\xff\x00", CELLS, 1, "int64")

    def test_empty_payload_rejected(self):
        with pytest.raises(CompressionError):
            decode_chunk(b"", CELLS, 1, "int64")

    def test_unknown_codec_name(self):
        with pytest.raises(CompressionError):
            get_codec("zstd")


class TestSizes:
    def test_sparse_chunk_offset_beats_dense(self):
        off, val = make_chunk([0, 10], [1, 2])
        sparse = ChunkOffsetCodec().encode(off, val, 4096, "int64")
        dense = DenseCodec().encode(off, val, 4096, "int64")
        assert len(sparse) < len(dense) / 100

    def test_dense_beats_pairs_on_full_chunk(self):
        off, val = make_chunk(list(range(CELLS)), [7] * CELLS)
        pairs = ChunkOffsetCodec().encode(off, val, CELLS, "int64")
        dense = DenseCodec().encode(off, val, CELLS, "int64")
        assert len(dense) < len(pairs)

    def test_lzw_compresses_sparse_dense_tile(self):
        off, val = make_chunk([1, 100], [5, 6])
        dense = DenseCodec().encode(off, val, 4096, "int64")
        lzw = LZWDenseCodec().encode(off, val, 4096, "int64")
        assert len(lzw) < len(dense) / 4

    def test_chunk_offset_cost_formula(self):
        # tag + u32 count + (4 + 8p) bytes per valid cell
        off, val = make_chunk([2, 4, 8], [1, 2, 3])
        payload = ChunkOffsetCodec().encode(off, val, CELLS, "int64")
        assert len(payload) == 1 + 4 + 3 * (4 + 8)


class TestAdaptive:
    def test_sparse_goes_chunk_offset(self):
        codec = AdaptiveCodec()
        off, val = make_chunk([1], [1])
        assert codec.encode(off, val, CELLS, "int64")[0] == ChunkOffsetCodec.tag

    def test_dense_goes_dense(self):
        codec = AdaptiveCodec()
        off, val = make_chunk(list(range(CELLS)), [1] * CELLS)
        assert codec.encode(off, val, CELLS, "int64")[0] == DenseCodec.tag

    def test_threshold_respected(self):
        codec = AdaptiveCodec(dense_threshold=0.01)
        off, val = make_chunk([1], [1])
        assert codec.encode(off, val, CELLS, "int64")[0] == DenseCodec.tag

    def test_decode_either_form(self):
        codec = AdaptiveCodec()
        for offsets in ([1, 5], list(range(CELLS))):
            off, val = make_chunk(offsets, [9] * len(offsets))
            payload = codec.encode(off, val, CELLS, "int64")
            off2, val2 = codec.decode(payload, CELLS, 1, "int64")
            assert off2.tolist() == offsets

    def test_bad_threshold(self):
        with pytest.raises(CompressionError):
            AdaptiveCodec(dense_threshold=0.0)


@settings(max_examples=80, deadline=None)
@given(st.binary(min_size=1, max_size=300))
def test_fuzzed_payloads_never_escape_compression_error(payload):
    """Arbitrary bytes must decode cleanly or raise CompressionError."""
    from repro.errors import CompressionError

    try:
        offsets, values = decode_chunk(payload, 64, 1, "int64")
    except CompressionError:
        return
    assert len(offsets) == len(values)
    if len(offsets):
        assert 0 <= offsets.min() and offsets.max() < 64


@settings(max_examples=40, deadline=None)
@given(
    st.integers(8, 256).flatmap(
        lambda cells: st.tuples(
            st.just(cells),
            st.lists(
                st.integers(0, cells - 1), unique=True, max_size=cells
            ).map(sorted),
            st.integers(1, 3),
        )
    ),
    st.sampled_from(["chunk-offset", "dense", "lzw-dense", "adaptive"]),
    st.data(),
)
def test_roundtrip_random_chunks(params, codec_name, data):
    cells, offsets, p = params
    values = [
        [data.draw(st.integers(-(2**40), 2**40)) for _ in range(p)]
        for _ in offsets
    ]
    off = np.array(offsets, dtype=np.int32)
    val = np.array(values, dtype=np.int64).reshape(len(offsets), p)
    codec = get_codec(codec_name)
    payload = codec.encode(off, val, cells, "int64")
    off2, val2 = decode_chunk(payload, cells, p, "int64")
    assert off2.tolist() == offsets
    assert val2.tolist() == val.tolist()
