"""Chunk (tile) geometry for n-dimensional arrays.

Paradise breaks an array into n-dimensional tiles so logically adjacent
cells stay close on disk (§3.1, following Sarawagi & Stonebraker).  A
:class:`ChunkGeometry` fixes an array shape and a chunk shape and
provides all the arithmetic the paper's algorithms need:

- chunk numbers are row-major over the grid of chunks;
- a cell's ``offsetInChunk`` is the row-major offset within its chunk,
  computed against the *nominal* chunk shape (§3.3's
  ``s = ((i*c)+j)*c)+k`` formula), so edge chunks simply leave some
  offsets unused;
- bulk (numpy) converters between global coordinates and
  ``(chunk_no, offset)`` pairs for the loader and the region functions;
- the two-way split of an ``offsetInChunk`` and the composed per-chunk
  tables (:class:`ComposedTables`) the vectorized kernels index with it;
- the decoded chunk the kernels read (:class:`DecodedChunk`): its
  cells, its origin and its split offsets, computed once per decode;
- the one place that decides which chunks a selection can touch
  (:meth:`ChunkGeometry.overlapping_chunks`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property

import numpy as np

from repro.errors import ChunkError
from repro.util.records import narrowest


def outer_fold(ufunc: np.ufunc, parts: list[np.ndarray]) -> np.ndarray:
    """``ufunc`` folded over the cross product of 1-D arrays, flattened.

    Row-major flattening: with per-dimension parts in dimension order
    the result is indexed by the row-major offset over those dimensions.
    """
    total = parts[0]
    for part in parts[1:]:
        total = ufunc.outer(total, part)
    return total.ravel()


class ChunkGeometry:
    """Shape + chunk-shape arithmetic for a chunked array."""

    def __init__(self, shape: tuple[int, ...], chunk_shape: tuple[int, ...]):
        if not shape:
            raise ChunkError("array must have at least one dimension")
        if len(chunk_shape) != len(shape):
            raise ChunkError(
                f"chunk shape {chunk_shape} has {len(chunk_shape)} dims, "
                f"array has {len(shape)}"
            )
        if any(s <= 0 for s in shape) or any(c <= 0 for c in chunk_shape):
            raise ChunkError("shape and chunk shape must be positive")
        self.shape = tuple(int(s) for s in shape)
        self.chunk_shape = tuple(
            min(int(c), int(s)) for c, s in zip(chunk_shape, shape)
        )
        self.ndim = len(shape)
        self.grid = tuple(
            math.ceil(s / c) for s, c in zip(self.shape, self.chunk_shape)
        )
        self.n_chunks = math.prod(self.grid)
        self.chunk_cells = math.prod(self.chunk_shape)
        self.logical_cells = math.prod(self.shape)
        # row-major strides within a chunk and over the chunk grid
        self.cell_strides = _row_major_strides(self.chunk_shape)
        self.grid_strides = _row_major_strides(self.grid)
        # the axis cutting the chunk into two halves of near-equal cell
        # counts (see split_offsets); a 1-D chunk has nothing to cut
        split = min(
            range(1, self.ndim),
            key=lambda k: abs(
                math.prod(self.chunk_shape[:k]) - math.prod(self.chunk_shape[k:])
            ),
            default=0,
        )
        self.offset_halves: tuple[range, ...] = tuple(
            dims
            for dims in (range(split), range(split, self.ndim))
            if dims
        )
        #: the narrowest unsigned dtype holding each half's sub-offsets
        self.half_dtypes = tuple(
            narrowest(math.prod(self.chunk_shape[d] for d in dims) - 1, signed=False)
            for dims in self.offset_halves
        )

    @cached_property
    def chunk_valid_cells(self) -> np.ndarray:
        """:meth:`valid_cells_in_chunk` of every chunk, by chunk number:
        the outer product of the per-axis edge-clipped extents."""
        return outer_fold(np.multiply, [
            np.minimum(c, s - np.arange(g) * c)
            for s, c, g in zip(self.shape, self.chunk_shape, self.grid)
        ])

    # -- scalar conversions ------------------------------------------------

    def _check_coords(self, coords) -> None:
        if len(coords) != self.ndim:
            raise ChunkError(
                f"coordinate arity {len(coords)} != array rank {self.ndim}"
            )
        for axis, (c, s) in enumerate(zip(coords, self.shape)):
            if not 0 <= c < s:
                raise ChunkError(
                    f"coordinate {c} out of range [0, {s}) on axis {axis}"
                )

    def chunk_of(self, coords) -> int:
        """Chunk number containing a cell."""
        self._check_coords(coords)
        return sum(
            (c // cs) * gs
            for c, cs, gs in zip(coords, self.chunk_shape, self.grid_strides)
        )

    def offset_in_chunk(self, coords) -> int:
        """The §3.3 ``offsetInChunk`` of a cell."""
        self._check_coords(coords)
        return sum(
            (c % cs) * st
            for c, cs, st in zip(coords, self.chunk_shape, self.cell_strides)
        )

    def locate(self, coords) -> tuple[int, int]:
        """Both at once: ``(chunk_no, offset_in_chunk)``."""
        return self.chunk_of(coords), self.offset_in_chunk(coords)

    def chunk_coords(self, chunk_no: int) -> tuple[int, ...]:
        """Grid coordinates of a chunk."""
        if not 0 <= chunk_no < self.n_chunks:
            raise ChunkError(
                f"chunk {chunk_no} out of range [0, {self.n_chunks})"
            )
        out = []
        for g, gs in zip(self.grid, self.grid_strides):
            out.append((chunk_no // gs) % g)
        return tuple(out)

    def chunk_origin(self, chunk_no: int) -> tuple[int, ...]:
        """Global coordinates of a chunk's first cell."""
        return tuple(
            gc * cs for gc, cs in zip(self.chunk_coords(chunk_no), self.chunk_shape)
        )

    def chunk_extent(self, chunk_no: int) -> tuple[int, ...]:
        """Actual cell counts of a chunk (smaller at array edges)."""
        origin = self.chunk_origin(chunk_no)
        return tuple(
            min(cs, s - o)
            for cs, s, o in zip(self.chunk_shape, self.shape, origin)
        )

    def valid_cells_in_chunk(self, chunk_no: int) -> int:
        """Logical (addressable) cells of a chunk, honoring edges."""
        return math.prod(self.chunk_extent(chunk_no))

    def cell_of(self, chunk_no: int, offset: int) -> tuple[int, ...]:
        """Global coordinates of ``(chunk_no, offset_in_chunk)``."""
        if not 0 <= offset < self.chunk_cells:
            raise ChunkError(
                f"offset {offset} out of range [0, {self.chunk_cells})"
            )
        origin = self.chunk_origin(chunk_no)
        return tuple(
            o + (offset // st) % cs
            for o, st, cs in zip(origin, self.cell_strides, self.chunk_shape)
        )

    # -- bulk (numpy) conversions ---------------------------------------------

    def coords_to_chunk_offset(
        self, coords: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vector version of :meth:`locate` over an ``(n, ndim)`` array."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != self.ndim:
            raise ChunkError(
                f"expected an (n, {self.ndim}) coordinate array, got "
                f"{coords.shape}"
            )
        if coords.size and (
            coords.min() < 0 or (coords >= np.array(self.shape)).any()
        ):
            raise ChunkError("coordinates out of array bounds")
        return np.divmod(self.cell_keys(coords.T), self.chunk_cells)

    def cell_keys(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """``chunk_no · chunk_cells + offsetInChunk`` of every cell, the
        chunk-major sort key, from one in-bounds index column per axis
        (any integer dtype).  Both terms are sums of one term per axis,
        so one composed table per axis is gathered and added into the
        key in place: no per-cell division, no full-length pair."""
        keys = np.zeros(len(columns[0]), dtype=np.int64)
        for column, size, extent, grid_stride, cell_stride in zip(
            columns, self.shape, self.chunk_shape, self.grid_strides, self.cell_strides
        ):
            grid, cell = np.divmod(np.arange(size, dtype=np.int64), extent)
            keys += (grid * (grid_stride * self.chunk_cells) + cell * cell_stride)[column]
        return keys

    def chunk_offset_to_coords(
        self, chunk_no: int, offsets: np.ndarray
    ) -> np.ndarray:
        """Global coordinates ``(n, ndim)`` of offsets within one chunk.

        Offsets must lie in ``[0, chunk_cells)`` (decoded chunks always
        do): the first axis then needs no ``%`` and the last no ``//``.
        """
        offsets = np.asarray(offsets)
        origin = self.chunk_origin(chunk_no)
        coords = np.empty((len(offsets), self.ndim), dtype=np.int64)
        last = self.ndim - 1
        for axis in range(self.ndim):
            index = offsets
            if axis != last:
                index = index // self.cell_strides[axis]
            if axis:
                index = index % self.chunk_shape[axis]
            np.add(index, origin[axis], out=coords[:, axis])
        return coords

    def split_offsets(self, offsets: np.ndarray) -> tuple[np.ndarray, ...]:
        """One row-major sub-offset per entry of :attr:`offset_halves`.

        A row-major offset over ``chunk_shape`` is ``hi * stride + lo``
        with ``hi`` the row-major offset over the leading dimensions and
        ``lo`` over the trailing ones.  Anything that is a sum of
        per-dimension terms can therefore be looked up as ``table_hi[hi]
        + table_lo[lo]`` from two tables of about ``sqrt(chunk_cells)``
        entries, for one integer division per cell whatever the rank —
        instead of a ``//`` and a ``%`` per cell *per dimension*.  Each
        half comes back read-only in :attr:`half_dtypes`.
        """
        halves: tuple[np.ndarray, ...]
        if len(self.offset_halves) == 1:
            halves = (offsets.astype(self.half_dtypes[0]),)
        else:
            stride = self.cell_strides[self.offset_halves[1].start - 1]
            hi = offsets // stride  # np.divmod is slower
            lo = offsets - hi * stride
            hi_dtype, lo_dtype = self.half_dtypes
            halves = (hi.astype(hi_dtype), lo.astype(lo_dtype))
        for half in halves:
            half.flags.writeable = False
        return halves

    # -- selections ---------------------------------------------------------------

    def pad_to_chunks(self, terms: list[np.ndarray]) -> list[np.ndarray]:
        """Per-dimension arrays zero-padded to whole chunks.

        The padding slots are never addressed — edge chunks leave the
        offsets beyond the array unused — so every chunk slices
        full-width.
        """
        padded = []
        for term, cells, extent in zip(terms, self.grid, self.chunk_shape):
            whole = np.zeros(cells * extent, dtype=term.dtype)
            whole[: len(term)] = term
            padded.append(whole)
        return padded

    def overlapping_chunks(self, chunk_range: range, masks=None):
        """Chunk numbers of ``chunk_range`` a selection can touch, ascending.

        ``masks`` holds one boolean membership array per dimension; a
        chunk survives when its index box holds a selected index on
        every dimension.  Enumerated directly from the touched grid
        coordinates (their cross product in row-major order *is*
        ascending chunk-number order), then clipped to the range — no
        chunk is tested one by one.  Without masks every chunk survives.
        """
        if masks is None:
            return chunk_range
        touched = [
            np.flatnonzero(mask.reshape(cells, -1).any(axis=1)) * stride
            for mask, cells, stride in zip(
                self.pad_to_chunks(masks), self.grid, self.grid_strides
            )
        ]
        chunk_nos = outer_fold(np.add, touched)
        low, high = np.searchsorted(
            chunk_nos, (chunk_range.start, chunk_range.stop)
        )
        return chunk_nos[low:high].tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChunkGeometry):
            return NotImplemented
        return self.shape == other.shape and self.chunk_shape == other.chunk_shape

    def __repr__(self) -> str:
        return f"ChunkGeometry(shape={self.shape}, chunk_shape={self.chunk_shape})"


def _row_major_strides(shape: tuple[int, ...]) -> tuple[int, ...]:
    strides = [1] * len(shape)
    for axis in range(len(shape) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * shape[axis + 1]
    return tuple(strides)


class ComposedTables:
    """A per-cell quantity looked up from ``offsetInChunk``, not coordinates.

    The §4.1 pass is position-based: a cell's result cell is
    ``Σ_d mapping[d][index_d] * result_stride[d]``, a fold (here ``+``)
    of one independent term per dimension.  Instead of rebuilding every
    cell's ``index_d`` from its offset, fold the terms themselves: for
    each half of the dimensions (:attr:`ChunkGeometry.offset_halves`)
    the outer fold of the chunk's slices of the per-dimension term
    arrays is a table indexed by that half's sub-offset, and the cell's
    value is ``table_hi[hi] ∘ table_lo[lo]``.  Two tables rather than
    one keep them at about ``sqrt(chunk_cells)`` entries — far fewer
    than the cells they serve — and rather than one per dimension keep
    the per-cell work at two gathers whatever the rank.

    With ``np.logical_and`` over per-dimension membership masks the same
    tables answer "is this cell selected".

    Term arrays are padded once to whole chunks (with the ufunc's
    absorbing zero/False), so every chunk slices full-width tables.  A
    half whose terms are all the ufunc's identity (dropped dimensions,
    unselected dimensions) contributes nothing and is skipped.
    """

    def __init__(
        self, geometry: ChunkGeometry, terms: list[np.ndarray], ufunc: np.ufunc
    ):
        self.ufunc = ufunc
        self.chunk_shape = geometry.chunk_shape
        self.terms = geometry.pad_to_chunks(terms)
        self.halves = [
            dims
            if any((terms[d] != ufunc.identity).any() for d in dims)
            else None
            for dims in geometry.offset_halves
        ]
        # per half, its table by the half's share of a chunk origin: the
        # chunks of one grid row share their tables
        self._tables: list[dict[tuple[int, ...], np.ndarray]] = [
            {} for _ in self.halves
        ]

    def _table(self, half: int, origin: tuple[int, ...]) -> np.ndarray:
        dims = self.halves[half]
        key = tuple(origin[d] for d in dims)
        table = self._tables[half].get(key)
        if table is None:
            table = self._tables[half][key] = outer_fold(
                self.ufunc,
                [self.terms[d][o : o + self.chunk_shape[d]] for d, o in zip(dims, key)],
            )
        return table

    def gather(
        self, origin: tuple[int, ...], sub_offsets: tuple[np.ndarray, ...]
    ) -> np.ndarray | None:
        """The quantity for each cell of one chunk (``None`` = identity)."""
        out = None
        for half, sub_offset in enumerate(sub_offsets):
            if self.halves[half] is None:
                continue
            picked = self._table(half, origin).take(sub_offset)
            out = picked if out is None else self.ufunc(out, picked, out=out)
        return out


class DecodedChunk:
    """One decoded chunk, as every kernel reads it.

    ``offsets`` (sorted ``int32``) and ``values`` (``(count, p)``) are
    the codec's aligned, owned, read-only arrays.  :attr:`origin` and
    :attr:`halves` depend only on the chunk and are computed on first
    use, so a chunk that is only probed is never split.  A record shared
    between threads (a :class:`~repro.serve.chunk_cache.ChunkCache`
    entry) goes through :meth:`share` before it is published and is
    never written after.
    """

    __slots__ = ("no", "offsets", "values", "_geometry", "_origin", "_halves")

    def __init__(
        self,
        geometry: ChunkGeometry,
        no: int,
        offsets: np.ndarray,
        values: np.ndarray,
        origin: tuple[int, ...] | None = None,
        halves: tuple[np.ndarray, ...] | None = None,
    ):
        self.no = no
        self.offsets = offsets
        self.values = values
        self._geometry = geometry
        self._origin = origin
        self._halves = halves

    @property
    def origin(self) -> tuple[int, ...]:
        """Global coordinates of the chunk's first cell."""
        if self._origin is None:
            self._origin = self._geometry.chunk_origin(self.no)
        return self._origin

    @property
    def halves(self) -> tuple[np.ndarray, ...]:
        """The offsets split in two (see :meth:`ChunkGeometry.split_offsets`)."""
        if self._halves is None:
            self._halves = self._geometry.split_offsets(self.offsets)
        return self._halves

    def share(self) -> None:
        """Compute what is otherwise computed on first use, so that no
        reader writes the record once it is shared."""
        self._origin, self._halves = self.origin, self.halves

    @property
    def nbytes(self) -> int:
        """Bytes of the offsets, values and (once split) halves."""
        split = 0 if self._halves is None else sum(h.nbytes for h in self._halves)
        return self.offsets.nbytes + self.values.nbytes + split

    def __len__(self) -> int:
        return len(self.offsets)

    def take(self, index: np.ndarray) -> "DecodedChunk":
        """The cells at ``index`` (positions or a boolean mask), in
        order; halves already split are taken along, not split again."""
        halves = self._halves
        if halves is not None:
            halves = tuple(half[index] for half in halves)
        return DecodedChunk(
            self._geometry, self.no, self.offsets[index], self.values[index],
            self._origin, halves,
        )
