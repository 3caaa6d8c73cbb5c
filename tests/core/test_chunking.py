"""Unit and property tests for chunk geometry."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChunkGeometry
from repro.errors import ChunkError


class TestConstruction:
    def test_basic_grid(self):
        g = ChunkGeometry((40, 40, 40, 100), (20, 20, 20, 10))
        assert g.grid == (2, 2, 2, 10)
        assert g.n_chunks == 80
        assert g.chunk_cells == 20 * 20 * 20 * 10
        assert g.logical_cells == 40 * 40 * 40 * 100

    def test_paper_chunk_counts(self):
        # §5.5.1: the 40x40x40x{50,100,1000} arrays have 40/80/800 chunks
        chunk = (20, 20, 20, 10)
        for fourth, chunks in ((50, 40), (100, 80), (1000, 800)):
            assert ChunkGeometry((40, 40, 40, fourth), chunk).n_chunks == chunks

    def test_uneven_shapes_round_up(self):
        g = ChunkGeometry((10, 7), (4, 4))
        assert g.grid == (3, 2)

    def test_chunk_clamped_to_shape(self):
        g = ChunkGeometry((3, 3), (10, 10))
        assert g.chunk_shape == (3, 3)
        assert g.n_chunks == 1

    def test_rank_mismatch(self):
        with pytest.raises(ChunkError):
            ChunkGeometry((4, 4), (2,))

    def test_empty_shape(self):
        with pytest.raises(ChunkError):
            ChunkGeometry((), ())

    def test_nonpositive(self):
        with pytest.raises(ChunkError):
            ChunkGeometry((0, 4), (1, 1))
        with pytest.raises(ChunkError):
            ChunkGeometry((4, 4), (0, 1))


class TestScalarMath:
    def test_paper_offset_formula(self):
        # §3.3: s = ((i*c)+j)*c)+k for a cubic chunk of side c
        c = 5
        g = ChunkGeometry((c, c, c), (c, c, c))
        for i, j, k in itertools.product(range(c), repeat=3):
            assert g.offset_in_chunk((i, j, k)) == ((i * c) + j) * c + k

    def test_chunk_numbers_row_major(self):
        g = ChunkGeometry((4, 6), (2, 2))
        assert g.chunk_of((0, 0)) == 0
        assert g.chunk_of((0, 5)) == 2
        assert g.chunk_of((2, 0)) == 3
        assert g.chunk_of((3, 5)) == 5

    def test_locate_roundtrip_all_cells(self):
        g = ChunkGeometry((5, 7, 3), (2, 3, 2))
        seen = set()
        for coords in itertools.product(range(5), range(7), range(3)):
            chunk_no, offset = g.locate(coords)
            assert g.cell_of(chunk_no, offset) == coords
            assert (chunk_no, offset) not in seen
            seen.add((chunk_no, offset))

    def test_chunk_origin_and_extent(self):
        g = ChunkGeometry((10, 7), (4, 4))
        assert g.chunk_origin(0) == (0, 0)
        assert g.chunk_extent(0) == (4, 4)
        last = g.n_chunks - 1
        assert g.chunk_origin(last) == (8, 4)
        assert g.chunk_extent(last) == (2, 3)

    def test_valid_cells_honor_edges(self):
        g = ChunkGeometry((10, 7), (4, 4))
        total = sum(g.valid_cells_in_chunk(c) for c in range(g.n_chunks))
        assert total == 70

    def test_out_of_bounds_coords(self):
        g = ChunkGeometry((4, 4), (2, 2))
        with pytest.raises(ChunkError):
            g.chunk_of((4, 0))
        with pytest.raises(ChunkError):
            g.offset_in_chunk((0, -1))
        with pytest.raises(ChunkError):
            g.chunk_of((0,))

    def test_bad_chunk_number(self):
        g = ChunkGeometry((4, 4), (2, 2))
        with pytest.raises(ChunkError):
            g.chunk_coords(4)
        with pytest.raises(ChunkError):
            g.cell_of(0, 99)


class TestBulkMath:
    def test_matches_scalar(self):
        g = ChunkGeometry((6, 5, 7), (3, 2, 4))
        coords = np.array(
            list(itertools.product(range(6), range(5), range(7)))
        )
        chunks, offsets = g.coords_to_chunk_offset(coords)
        for row, cn, off in zip(coords, chunks, offsets):
            assert g.locate(tuple(row)) == (cn, off)

    def test_roundtrip_through_coords(self):
        g = ChunkGeometry((6, 5), (4, 3))
        coords = np.array([[0, 0], [5, 4], [3, 3], [4, 2]])
        chunks, offsets = g.coords_to_chunk_offset(coords)
        for i in range(len(coords)):
            back = g.chunk_offset_to_coords(int(chunks[i]), offsets[i : i + 1])
            assert tuple(back[0]) == tuple(coords[i])

    def test_bad_shapes_rejected(self):
        g = ChunkGeometry((4, 4), (2, 2))
        with pytest.raises(ChunkError):
            g.coords_to_chunk_offset(np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(ChunkError):
            g.coords_to_chunk_offset(np.array([[0, 7]]))

    def test_empty_input(self):
        g = ChunkGeometry((4, 4), (2, 2))
        chunks, offsets = g.coords_to_chunk_offset(np.empty((0, 2), np.int64))
        assert chunks.size == 0 and offsets.size == 0


@st.composite
def geometries(draw):
    ndim = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 12)) for _ in range(ndim))
    chunk = tuple(draw(st.integers(1, 12)) for _ in range(ndim))
    return ChunkGeometry(shape, chunk)


@settings(max_examples=60, deadline=None)
@given(geometries(), st.data())
def test_locate_is_a_bijection(g, data):
    coords = tuple(
        data.draw(st.integers(0, s - 1), label=f"axis{i}")
        for i, s in enumerate(g.shape)
    )
    chunk_no, offset = g.locate(coords)
    assert 0 <= chunk_no < g.n_chunks
    assert 0 <= offset < g.chunk_cells
    assert g.cell_of(chunk_no, offset) == coords


@settings(max_examples=40, deadline=None)
@given(geometries())
def test_grid_covers_all_chunks(g):
    seen = {g.chunk_of(g.chunk_origin(c)) for c in range(g.n_chunks)}
    assert seen == set(range(g.n_chunks))


@settings(max_examples=60, deadline=None)
@given(geometries(), st.data())
def test_bulk_offset_math_matches_scalar(g, data):
    chunk_no = data.draw(st.integers(0, g.n_chunks - 1), label="chunk")
    offsets = np.array(
        data.draw(
            st.lists(st.integers(0, g.chunk_cells - 1), max_size=20),
            label="offsets",
        ),
        dtype=np.int32,  # what a decoded chunk hands over
    )
    coords = g.chunk_offset_to_coords(chunk_no, offsets)
    assert coords.shape == (len(offsets), g.ndim)
    assert coords.dtype == np.int64
    expected = [g.cell_of(chunk_no, int(offset)) for offset in offsets]
    assert [tuple(row) for row in coords.tolist()] == expected

    # each half's sub-offset is the row-major offset over its own axes
    halves = g.split_offsets(offsets)
    assert [d for dims in g.offset_halves for d in dims] == list(range(g.ndim))
    origin = g.chunk_origin(chunk_no)
    for dims, sub_offsets in zip(g.offset_halves, halves):
        # the narrowest unsigned dtype holding the half's largest sub-offset
        top = math.prod(g.chunk_shape[d] for d in dims) - 1
        assert np.iinfo(sub_offsets.dtype).max >= top
        assert sub_offsets.dtype.kind == "u"
        assert sub_offsets.dtype.itemsize == 1 or top > np.iinfo(
            np.dtype(f"u{sub_offsets.dtype.itemsize // 2}")
        ).max
        assert not sub_offsets.flags.writeable
        rebuilt = np.zeros(len(offsets), dtype=np.int64)
        for d in dims:
            rebuilt = rebuilt * g.chunk_shape[d] + (coords[:, d] - origin[d])
        assert sub_offsets.tolist() == rebuilt.tolist()


def test_split_axis_balances_the_paper_chunk():
    g = ChunkGeometry((40, 40, 40, 100), (20, 20, 20, 10))
    assert g.offset_halves == (range(0, 2), range(2, 4))  # 400 x 200 entries
    assert ChunkGeometry((7,), (3,)).offset_halves == (range(0, 1),)
