"""§4.1: the OLAP Array consolidation algorithm.

Consolidation merges the star join, the group-by and the aggregation
into a single position-based pass:

    For each joined dimension { create result B-tree; load the
        IndexToIndex array; }
    scan the input array
    For each array cell {
        look up result indices using the IndexToIndex arrays;  // star join
        find the corresponding result array cell;
        add the input cell to the result array cell;           // aggregation
    }

The result is held as a flat in-memory array indexed positionally (the
paper's in-memory result OLAP object); :func:`consolidate` can
optionally materialize it back into a persisted
:class:`~repro.core.olap_array.OLAPArray`.

Two execution modes: ``interpreted`` runs the per-cell loop exactly as
the pseudo-code reads (used for the figures so the relational baseline,
also per-tuple Python, pays symmetric interpreter costs);
``vectorized`` keeps the pass position-based end to end: a cell's
``offsetInChunk`` is split once into a high and a low part and each
part indexes a small per-chunk table that already holds the composed
IndexToIndex × result-stride contributions of its dimensions, so no
cell's coordinates are ever rebuilt (see :class:`_ComposedTables`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.aggregates import get_aggregate
from repro.core.chunking import ChunkGeometry
from repro.core.index_to_index import IndexToIndex
from repro.core.olap_array import OLAPArray
from repro.errors import QueryError
from repro.obs.tracer import get_tracer
from repro.util.stats import Counters

#: how each vectorizable aggregate folds into its column; ``count`` has
#: no column — the per-cell touch counts already are the answer
_VECTOR_UFUNCS = {
    "sum": np.add,
    "avg": np.add,
    "min": np.minimum,
    "max": np.maximum,
    "count": None,
}


@dataclass(frozen=True)
class ConsolidationSpec:
    """What to do with one dimension: group by a level, the key, or drop.

    - ``level(attr)`` — group by hierarchy attribute ``attr``;
    - ``key()`` — group by the dimension key itself (identity);
    - ``drop()`` — aggregate the dimension away entirely;
    - ``mapping(i2i)`` — group by an explicit IndexToIndex array (used
      by aggregate navigation, which derives the mapping by factoring
      hierarchy levels instead of reading it off the array).
    """

    kind: str
    attr: str | None = None
    i2i: IndexToIndex | None = None

    @classmethod
    def level(cls, attr: str) -> "ConsolidationSpec":
        return cls("level", attr)

    @classmethod
    def key(cls) -> "ConsolidationSpec":
        return cls("key")

    @classmethod
    def drop(cls) -> "ConsolidationSpec":
        return cls("drop")

    @classmethod
    def mapping(cls, i2i: IndexToIndex) -> "ConsolidationSpec":
        return cls("mapping", i2i=i2i)


@dataclass
class ConsolidationResult:
    """Rows (sorted), optional materialized result array, and counters."""

    rows: list[tuple]
    counters: Counters
    result_array: OLAPArray | None = None


def _resolve_specs(
    array: OLAPArray, specs: list[ConsolidationSpec]
) -> list[IndexToIndex]:
    if len(specs) != array.geometry.ndim:
        raise QueryError(
            f"need one spec per dimension ({array.geometry.ndim}), got "
            f"{len(specs)}"
        )
    i2is = []
    for d, spec in enumerate(specs):
        if spec.kind == "level":
            i2is.append(array.index_to_index(d, spec.attr))
        elif spec.kind == "key":
            i2is.append(IndexToIndex.identity(array.dims[d].keys()))
        elif spec.kind == "drop":
            i2is.append(IndexToIndex.collapse(len(array.dims[d])))
        elif spec.kind == "mapping":
            if spec.i2i is None or len(spec.i2i) != len(array.dims[d]):
                raise QueryError(
                    f"mapping spec on dimension {d} must cover its "
                    f"{len(array.dims[d])} indices"
                )
            i2is.append(spec.i2i)
        else:
            raise QueryError(f"unknown spec kind {spec.kind!r}")
    return i2is


class ResultAccumulator:
    """The in-memory result OLAP object both algorithms aggregate into.

    Result cells are addressed positionally: ``linear = Σ result_index[d]
    * stride[d]`` where each dimension's result index comes from its
    IndexToIndex array.  Dropped dimensions contribute a size-1 axis and
    are omitted from output rows.
    """

    def __init__(
        self,
        array: OLAPArray,
        specs: list[ConsolidationSpec],
        aggregate: str | list[str] = "sum",
    ):
        self.array = array
        self.specs = list(specs)
        self.i2is = _resolve_specs(array, specs)
        self.result_shape = tuple(i.target_size for i in self.i2is)
        self.total_cells = math.prod(self.result_shape)
        strides = [1] * len(self.result_shape)
        for axis in range(len(strides) - 2, -1, -1):
            strides[axis] = strides[axis + 1] * self.result_shape[axis + 1]
        self.result_strides = tuple(strides)
        names = (
            [aggregate] * array.n_measures
            if isinstance(aggregate, str)
            else list(aggregate)
        )
        if len(names) != array.n_measures:
            raise QueryError(
                f"{len(names)} aggregates for {array.n_measures} measures"
            )
        self.agg_names = names
        self.aggs = [get_aggregate(n) for n in names]
        # interpreted state: one list of per-measure states per touched cell
        self._states: dict[int, list] = {}
        # vectorized state: per-cell touch counts plus one contiguous
        # column per measure in the array's own dtype (None for count)
        self._vec: list[np.ndarray | None] | None = None
        self._vec_counts: np.ndarray | None = None

    # -- interpreted path ----------------------------------------------------

    def mapping_lists(self) -> list[list[int]]:
        """Per-dimension index→result-index lists as plain Python lists."""
        return [i.mapping.tolist() for i in self.i2is]

    def add_one(self, linear: int, measures) -> None:
        """Fold one cell's measures into result cell ``linear``."""
        state = self._states.get(linear)
        if state is None:
            state = [agg.initial() for agg in self.aggs]
            self._states[linear] = state
        for m, agg in enumerate(self.aggs):
            state[m] = agg.add(state[m], measures[m])

    # -- vectorized path ---------------------------------------------------------

    def _vec_init(self) -> None:
        for name in self.agg_names:
            if name not in _VECTOR_UFUNCS:
                raise QueryError(
                    f"aggregate {name!r} not supported in vectorized mode"
                )
        # Columns stay in the measure dtype so int64 folds are exact past
        # 2**53.  min/max start at the dtype's extreme; whether a cell
        # holds a real value is decided by its touch count, never by
        # comparing against the sentinel.
        dtype = np.dtype(self.array.dtype)
        if dtype.kind == "f":
            lowest, highest = -np.inf, np.inf
        else:
            lowest, highest = np.iinfo(dtype).min, np.iinfo(dtype).max
        fill = {"sum": 0, "avg": 0, "min": highest, "max": lowest}
        self._vec_counts = np.zeros(self.total_cells, dtype=np.int64)
        self._vec = [
            None
            if name == "count"
            else np.full(self.total_cells, fill[name], dtype=dtype)
            for name in self.agg_names
        ]

    def add_many(self, linear: np.ndarray, values: np.ndarray) -> None:
        """Fold many cells at once (vectorized mode).

        ``values`` is the chunk's ``(count, p)`` matrix in the array's
        dtype; ``linear`` holds each row's result cell.
        """
        if self._vec is None:
            self._vec_init()
        np.add.at(self._vec_counts, linear, 1)
        for m, (name, column) in enumerate(zip(self.agg_names, self._vec)):
            if column is not None:
                # a decoded chunk's values are a view at an odd byte offset
                # of its payload; ufunc.at only takes its fast path on
                # aligned operands
                measures = np.require(values[:, m], requirements="A")
                _VECTOR_UFUNCS[name].at(column, linear, measures)

    # -- extraction -------------------------------------------------------------------

    def _group_columns(self, linear) -> list[list]:
        """Group values of result cells, one list per kept dimension."""
        indices = np.unravel_index(linear, self.result_shape)
        return [
            list(map(i2i.target_keys.__getitem__, index.tolist()))
            for spec, i2i, index in zip(self.specs, self.i2is, indices)
            if spec.kind != "drop"
        ]

    def rows(self) -> list[tuple]:
        """Sorted output rows: ``(group values..., aggregates...)``."""
        out: list[tuple] = []
        if self._vec is not None:
            touched = np.flatnonzero(self._vec_counts)
            counts = self._vec_counts[touched].tolist()
            columns = []
            for name, column in zip(self.agg_names, self._vec):
                if column is None:
                    columns.append(counts)
                    continue
                cells = column[touched].tolist()
                if name == "avg":  # Python numbers: the interpreted division
                    cells = [total / n for total, n in zip(cells, counts)]
                columns.append(cells)
            out.extend(zip(*self._group_columns(touched), *columns))
        if self._states:
            results = [
                [agg.result(state[m]) for state in self._states.values()]
                for m, agg in enumerate(self.aggs)
            ]
            out.extend(zip(*self._group_columns(list(self._states)), *results))
        out.sort()
        return out

    def touched_cells(self) -> int:
        """Number of distinct result cells that received input."""
        if self._vec is not None:
            return int(np.count_nonzero(self._vec_counts))
        return len(self._states)

    # -- shard transport (the repro.shard scatter-gather hook) -------------------

    def export_state(self) -> dict:
        """The accumulator's aggregate state as a picklable payload.

        Every interpreted aggregate state is a plain Python scalar or
        tuple and the vectorized state is the touch counts plus a list
        of native-dtype columns, so the payload crosses a process
        boundary losslessly.  The structural parts (array, specs,
        strides) are *not* included — the receiver rebuilds an
        accumulator against its own array handle and calls
        :meth:`import_state`.
        """
        return {
            "states": {int(k): list(v) for k, v in self._states.items()},
            "vec": self._vec,
            "vec_counts": self._vec_counts,
        }

    def import_state(self, payload: dict) -> "ResultAccumulator":
        """Restore a payload produced by :meth:`export_state`."""
        self._states = {int(k): list(v) for k, v in payload["states"].items()}
        self._vec = payload["vec"]
        self._vec_counts = payload["vec_counts"]
        return self

    # -- partition merging (the §6 parallelization hook) ------------------------

    def merge_from(self, other: "ResultAccumulator") -> None:
        """Fold another accumulator (same specs/aggregates) into this one.

        This is the combine step of a partitioned consolidation: each
        partition aggregates its chunk range independently, then the
        states merge exactly (every aggregate carries a mergeable
        sketch).
        """
        if other.result_shape != self.result_shape or other.agg_names != self.agg_names:
            raise QueryError("cannot merge accumulators with different specs")
        for linear, state in other._states.items():
            mine = self._states.get(linear)
            if mine is None:
                self._states[linear] = list(state)
            else:
                for m, agg in enumerate(self.aggs):
                    mine[m] = agg.merge(mine[m], state[m])
        if other._vec is not None:
            if self._vec is None:
                self._vec_init()
            self._vec_counts += other._vec_counts
            for name, mine, theirs in zip(self.agg_names, self._vec, other._vec):
                if mine is not None:
                    _VECTOR_UFUNCS[name](mine, theirs, out=mine)


def allowed_masks(
    array: OLAPArray, allowed: list[list[int]]
) -> list[np.ndarray]:
    """Per-dimension boolean membership masks from final index lists."""
    masks = []
    for d, indices in enumerate(allowed):
        mask = np.zeros(len(array.dims[d]), dtype=bool)
        if len(indices):
            mask[np.asarray(list(indices), dtype=np.int64)] = True
        masks.append(mask)
    return masks


def _chunk_overlaps(geometry, chunk_no: int, masks: list[np.ndarray]) -> bool:
    """Whether a chunk's index box intersects the selection at all."""
    origin = geometry.chunk_origin(chunk_no)
    for d, mask in enumerate(masks):
        if not mask[origin[d] : origin[d] + geometry.chunk_shape[d]].any():
            return False
    return True


def outer_fold(ufunc: np.ufunc, parts: list[np.ndarray]) -> np.ndarray:
    """``ufunc`` folded over the cross product of 1-D arrays, flattened.

    Row-major flattening: with per-dimension parts in dimension order
    the result is indexed by the row-major offset over those dimensions.
    """
    total = parts[0]
    for part in parts[1:]:
        total = ufunc.outer(total, part)
    return total.ravel()


class _ComposedTables:
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
    absorbing zero/False; those slots are never addressed — edge chunks
    leave the offsets beyond the array unused), so every chunk slices
    full-width tables.  A half whose terms are all the ufunc's identity
    (dropped dimensions, unselected dimensions) contributes nothing and
    is skipped.
    """

    def __init__(
        self, geometry: ChunkGeometry, terms: list[np.ndarray], ufunc: np.ufunc
    ):
        self.ufunc = ufunc
        self.chunk_shape = geometry.chunk_shape
        self.terms = []
        for term, cells, extent in zip(terms, geometry.grid, geometry.chunk_shape):
            padded = np.zeros(cells * extent, dtype=term.dtype)
            padded[: len(term)] = term
            self.terms.append(padded)
        self.halves = [
            dims
            if any((terms[d] != ufunc.identity).any() for d in dims)
            else None
            for dims in geometry.offset_halves
        ]

    def gather(
        self, origin: tuple[int, ...], sub_offsets: tuple[np.ndarray, ...]
    ) -> np.ndarray | None:
        """The quantity for each cell of one chunk (``None`` = identity)."""
        out = None
        for dims, sub_offset in zip(self.halves, sub_offsets):
            if dims is None:
                continue
            table = outer_fold(
                self.ufunc,
                [
                    self.terms[d][origin[d] : origin[d] + self.chunk_shape[d]]
                    for d in dims
                ],
            )
            picked = table.take(sub_offset)
            out = picked if out is None else self.ufunc(out, picked, out=out)
        return out


def scan_chunk_range(
    array: OLAPArray,
    accumulator: ResultAccumulator,
    chunk_range,
    mode: str,
    allowed: list[list[int]] | None = None,
    counters: Counters | None = None,
) -> int:
    """Run the §4.1 scan over a range of chunk numbers.

    Factored out so a partitioned consolidation (see
    :func:`repro.core.parallel.consolidate_partitioned`) and the shard
    workers (:mod:`repro.shard.worker`) can drive one accumulator per
    chunk partition.  Returns the number of valid cells folded in.

    ``allowed`` (per-dimension sorted index lists, the §4.2 "final
    lists") pushes a selection into the scan: chunks whose index box
    misses the selection are skipped without a read, and non-matching
    cells inside surviving chunks are filtered out.  ``counters``, when
    given, receives per-call ``chunks_read`` / ``chunks_skipped`` /
    ``cells_scanned`` — the per-shard attribution the shared
    ``array.counters`` bag cannot provide under concurrent scans.
    """
    geometry = array.geometry
    masks = allowed_masks(array, allowed) if allowed is not None else None
    scanned = 0
    chunks_read = 0
    chunks_skipped = 0
    if mode == "interpreted":
        maps = accumulator.mapping_lists()
        strides = accumulator.result_strides
        cell_strides = geometry.cell_strides
        chunk_shape = geometry.chunk_shape
        ndim = geometry.ndim
        mask_lists = [m.tolist() for m in masks] if masks is not None else None
        for chunk_no in chunk_range:
            if masks is not None and not _chunk_overlaps(
                geometry, chunk_no, masks
            ):
                chunks_skipped += 1
                continue
            offsets, values = array.read_chunk(chunk_no)
            if not len(offsets):
                continue
            chunks_read += 1
            origin = geometry.chunk_origin(chunk_no)
            value_rows = values.tolist()
            for j, offset in enumerate(offsets.tolist()):
                linear = 0
                keep = True
                for d in range(ndim):
                    index = origin[d] + (offset // cell_strides[d]) % chunk_shape[d]
                    if mask_lists is not None and not mask_lists[d][index]:
                        keep = False
                        break
                    linear += maps[d][index] * strides[d]
                if keep:
                    accumulator.add_one(linear, value_rows[j])
                    scanned += 1
    else:
        targets = _ComposedTables(
            geometry,
            [
                i2i.mapping.astype(np.int64) * stride
                for i2i, stride in zip(
                    accumulator.i2is, accumulator.result_strides
                )
            ],
            np.add,
        )
        selected = (
            _ComposedTables(geometry, masks, np.logical_and)
            if masks is not None
            else None
        )
        for chunk_no in chunk_range:
            if masks is not None and not _chunk_overlaps(
                geometry, chunk_no, masks
            ):
                chunks_skipped += 1
                continue
            offsets, values = array.read_chunk(chunk_no)
            if not len(offsets):
                continue
            chunks_read += 1
            origin = geometry.chunk_origin(chunk_no)
            halves = geometry.split_offsets(offsets)
            keep = (
                selected.gather(origin, halves) if selected is not None else None
            )
            if keep is not None:
                if not keep.any():
                    continue
                halves = tuple(half[keep] for half in halves)
                values = values[keep]
            linear = targets.gather(origin, halves)
            if linear is None:  # every dimension dropped: one result cell
                linear = np.zeros(len(values), dtype=np.int64)
            accumulator.add_many(linear, values)
            scanned += len(values)
    if counters is not None:
        counters.add("chunks_read", chunks_read)
        counters.add("cells_scanned", scanned)
        if chunks_skipped:
            counters.add("chunks_skipped", chunks_skipped)
    return scanned


def consolidate(
    array: OLAPArray,
    specs: list[ConsolidationSpec],
    aggregate: str | list[str] = "sum",
    mode: str = "interpreted",
    counters: Counters | None = None,
    materialize_as: str | None = None,
) -> ConsolidationResult:
    """Run the §4.1 consolidation over a whole array.

    ``mode`` is ``interpreted`` (faithful per-cell loop) or
    ``vectorized`` (numpy kernels).  With ``materialize_as`` the result
    is also persisted as a new OLAP array of that name.
    """
    if mode not in ("interpreted", "vectorized"):
        raise QueryError(f"unknown mode {mode!r}")
    counters = counters if counters is not None else Counters()
    tracer = get_tracer()
    with tracer.span("resolve_mappings"):
        accumulator = ResultAccumulator(array, specs, aggregate)
    with tracer.span(
        "scan_chunks", mode=mode, chunks=array.geometry.n_chunks
    ):
        scanned = scan_chunk_range(
            array, accumulator, range(array.geometry.n_chunks), mode
        )
        counters.add("cells_scanned", scanned)
        counters.merge(array.counters)
        array.counters.reset()
    counters.add("result_cells", accumulator.touched_cells())

    with tracer.span("extract_rows"):
        rows = accumulator.rows()
    result_array = None
    if materialize_as is not None:
        result_array = _materialize(array, accumulator, rows, materialize_as)
    return ConsolidationResult(rows=rows, counters=counters, result_array=result_array)


def _materialize(
    array: OLAPArray,
    accumulator: ResultAccumulator,
    rows: list[tuple],
    name: str,
) -> OLAPArray:
    """Persist consolidation output as a new OLAP array."""
    from repro.core.builder import DimensionData, build_olap_array

    kept = [
        (d, spec, i2i)
        for d, (spec, i2i) in enumerate(zip(accumulator.specs, accumulator.i2is))
        if spec.kind != "drop"
    ]
    if not kept:
        raise QueryError("cannot materialize a fully collapsed result")
    dimensions = [
        DimensionData(
            name=(
                f"{array.dim_names[d]}.{spec.attr}"
                if spec.kind == "level"
                else array.dim_names[d]
            ),
            keys=list(i2i.target_keys),
        )
        for d, spec, i2i in kept
    ]
    chunk_shape = tuple(min(len(dim.keys), 16) for dim in dimensions)
    dtype = array.dtype
    if any(n in ("avg",) for n in accumulator.agg_names):
        dtype = "float64"
    return build_olap_array(
        array.fm,
        name,
        dimensions,
        rows,
        chunk_shape,
        codec=array.codec_name,
        dtype=dtype,
        measure_names=[
            f"{agg}({m})"
            for agg, m in zip(accumulator.agg_names, array.measure_names)
        ],
    )
