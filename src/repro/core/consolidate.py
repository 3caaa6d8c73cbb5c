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

One kernel runs the pass, position-based end to end: a cell's
``offsetInChunk`` is split once per decode into a high and a low part
(the chunk's :class:`~repro.core.chunking.DecodedChunk` keeps them) and
each part indexes a small per-chunk table that already holds the
composed IndexToIndex × result-stride contributions of its dimensions,
so no cell's coordinates are ever rebuilt (see
:class:`~repro.core.chunking.ComposedTables`).  Every aggregate folds
into numpy columns — ``var``/``stddev`` as their moment columns.  The
loop exactly as the pseudo-code reads survives as
:func:`scan_chunk_range`'s ``"interpreted"`` kernel: the reference the
kernel is tested against, and abl6's comparison.

The chunks come from the one walk
(:meth:`OLAPArray.walk <repro.core.olap_array.OLAPArray.walk>`): a
pushed-down selection is the walk's masks, and a partition is the walk
over a sub-range (:func:`scan_chunk_range`).  Under a selection the
kernel has two directions per chunk — probe the chunk's share of the
cross product (§4.2) or mask its stored cells (§4.1) — and takes the
cheaper (:func:`probe_is_cheaper`).  The probed chunks' shares are
enumerated once per query, in chunk-number order, as §4.2 does
(:func:`probe_candidates`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.aggregates import Aggregate, ColumnFold, get_aggregate
from repro.core.chunking import ComposedTables, DecodedChunk, outer_fold
from repro.core.index_to_index import IndexToIndex
from repro.core.meta import NO_CHUNK
from repro.core.olap_array import OLAPArray
from repro.errors import QueryError
from repro.obs.tracer import get_tracer
from repro.util.stats import Counters


#: the two per-chunk kernels :func:`scan_chunk_range` runs
_KERNELS = ("vectorized", "interpreted")

#: the dtype a materialized result stores each aggregate in (absent:
#: the measure's own)
_RESULT_DTYPES = {
    "avg": "float64", "var": "float64", "stddev": "float64", "count": "int64",
}


@dataclass(frozen=True)
class ConsolidationSpec:
    """What to do with one dimension: group by a level, the key, or drop.

    - ``level(attr)`` — group by hierarchy attribute ``attr``;
    - ``key()`` — group by the dimension key itself (identity);
    - ``drop()`` — aggregate the dimension away entirely;
    - ``mapping(i2i)`` — group by an explicit IndexToIndex array (one
      the caller derived instead of reading it off the array, e.g. to
      roll a materialized result up a hierarchy it does not store).
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
    array: OLAPArray, specs: list[ConsolidationSpec], counters: Counters | None
) -> list[IndexToIndex]:
    if len(specs) != array.geometry.ndim:
        raise QueryError(
            f"need one spec per dimension ({array.geometry.ndim}), got "
            f"{len(specs)}"
        )
    i2is = []
    for d, spec in enumerate(specs):
        if spec.kind == "level":
            i2is.append(array.index_to_index(d, spec.attr, counters))
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
    are omitted from output rows.  ``counters`` is billed the
    IndexToIndex loads the specs cause (default: the array's own bag).
    An aggregate is a name or an :class:`~repro.aggregates.Aggregate`.

    The state (:meth:`state`) is a :class:`~repro.aggregates.ColumnFold`
    over the result cells, the fold the relational operators and the
    grains run too.  It is allocated by the first fold, merge or read,
    so an accumulator that is only resolved, or that receives a shipped
    state, never holds a blank one.
    """

    def __init__(
        self,
        array: OLAPArray,
        specs: list[ConsolidationSpec],
        aggregate: str | Aggregate | list = "sum",
        counters: Counters | None = None,
    ):
        self.array = array
        self.specs = list(specs)
        self.i2is = _resolve_specs(array, specs, counters)
        self.result_shape = tuple(i.target_size for i in self.i2is)
        self.total_cells = math.prod(self.result_shape)
        strides = [1] * len(self.result_shape)
        for axis in range(len(strides) - 2, -1, -1):
            strides[axis] = strides[axis + 1] * self.result_shape[axis + 1]
        self.result_strides = tuple(strides)
        names = (
            [aggregate] * array.n_measures
            if isinstance(aggregate, (str, Aggregate))
            else list(aggregate)
        )
        if len(names) != array.n_measures:
            raise QueryError(
                f"{len(names)} aggregates for {array.n_measures} measures"
            )
        self.agg_names = [n if isinstance(n, str) else n.name for n in names]
        self.aggs = [n if isinstance(n, Aggregate) else get_aggregate(n) for n in names]
        self._fold: ColumnFold | None = None
        self._targets: ComposedTables | None = None

    def state(self) -> ColumnFold:
        """The fold every cell enters, allocated blank on first use."""
        if self._fold is None:
            self._fold = ColumnFold.blank(
                self.aggs, [self.array.dtype] * len(self.aggs), self.total_cells
            )
        return self._fold

    def mapping_lists(self) -> list[list[int]]:
        """Per-dimension index→result-index lists as plain Python lists."""
        return [i.mapping.tolist() for i in self.i2is]

    def add_many(self, linear: np.ndarray, values: np.ndarray) -> None:
        """Fold many cells at once, in the order given.

        ``values`` is a ``(count, p)`` matrix in the array's dtype;
        ``linear`` holds each row's result cell.
        """
        self.state().fold(linear, values.T)

    def target_terms(self) -> list[np.ndarray]:
        """Per dimension, each index's contribution to the result cell:
        its IndexToIndex target times the dimension's result stride."""
        return [
            i2i.mapping.astype(np.int64) * stride
            for i2i, stride in zip(self.i2is, self.result_strides)
        ]

    def add_chunk(self, chunk: DecodedChunk) -> None:
        """Fold one chunk's cells, addressed by their split offsets.

        The kernel: each cell's result cell is gathered from the
        composed IndexToIndex × result-stride tables, never from rebuilt
        coordinates.
        """
        if self._targets is None:
            self._targets = ComposedTables(
                self.array.geometry, self.target_terms(), np.add
            )
        linear = self._targets.gather(chunk.origin, chunk.halves)
        if linear is None:  # every dimension dropped: one result cell
            linear = np.zeros(len(chunk), dtype=np.int64)
        self.add_many(linear, chunk.values)

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
        """Sorted output rows: ``(group values..., aggregates...)``.

        Aggregates finish on Python numbers
        (:meth:`~repro.aggregates.ColumnFold.finish`).
        """
        if self._fold is None:
            return []
        touched = np.flatnonzero(self._fold.counts)
        out = list(zip(*self._group_columns(touched), *self._fold.finish(touched)))
        out.sort()
        return out

    def touched_cells(self) -> int:
        """Number of distinct result cells that received input."""
        if self._fold is None:
            return 0
        return int(np.count_nonzero(self._fold.counts))

    # -- shard transport (the repro.shard scatter-gather hook) -------------------

    def export_state(self) -> dict:
        """The accumulator's aggregate state as a picklable payload.

        The touch counts and every measure's columns are plain numpy
        arrays, so the payload crosses a process boundary losslessly.
        The structural parts (array, specs, strides) are *not* included
        — the receiver rebuilds an accumulator against its own array
        handle and calls :meth:`import_state`.
        """
        state = self.state()
        return {"counts": state.counts, "columns": state.columns}

    def import_state(self, payload: dict) -> "ResultAccumulator":
        """Restore a payload produced by :meth:`export_state`."""
        self._fold = ColumnFold(self.aggs, payload["counts"], payload["columns"])
        return self

    # -- partition merging (the §6 parallelization hook) ------------------------

    def merge_from(self, other: "ResultAccumulator") -> None:
        """Fold another accumulator (same specs/aggregates) into this one.

        This is the combine step of a partitioned consolidation: each
        partition aggregates its chunk range independently, then every
        column merges with the ufunc it folds with.
        """
        if other.result_shape != self.result_shape or other.agg_names != self.agg_names:
            raise QueryError("cannot merge accumulators with different specs")
        if other._fold is not None:
            self.state().merge_from(other._fold)


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


def _scan_interpreted(array, accumulator, cells) -> int:
    """The per-cell address loop, exactly as the §4.1 pseudo-code reads;
    each chunk's cells then fold through one ``add_many``."""
    geometry = array.geometry
    maps = accumulator.mapping_lists()
    strides = accumulator.result_strides
    cell_strides = geometry.cell_strides
    chunk_shape = geometry.chunk_shape
    ndim = geometry.ndim
    scanned = 0
    for chunk in cells:
        origin = chunk.origin
        linear = []
        for offset in chunk.offsets.tolist():
            cell = 0
            for d in range(ndim):
                index = origin[d] + (offset // cell_strides[d]) % chunk_shape[d]
                cell += maps[d][index] * strides[d]
            linear.append(cell)
        accumulator.add_many(np.array(linear, dtype=np.int64), chunk.values)
        scanned += len(linear)
    return scanned


def _scan_vectorized(array, accumulator, cells) -> int:
    """The composed-table kernel: two gathers per cell whatever the rank."""
    scanned = 0
    for chunk in cells:
        accumulator.add_chunk(chunk)
        scanned += len(chunk)
    return scanned


# -- the selection kernel (§4.2 over the §4.1 walk) ----------------------------

#: The direction rule's one constant: how many binary-search steps a probe
#: may spend per stored cell before masking every stored cell is cheaper.
#: A probe costs about ``candidates * log2(stored)`` (one ``searchsorted``
#: into the chunk's sorted offsets), a filter about ``stored`` (one offset
#: split, the membership gathers); measured per chunk on 800 to 40 000
#: stored cells, the two cross between 1.6 and 2.6 steps per stored cell
#: (table in DESIGN §5.7).
PROBE_STEPS_PER_STORED_CELL = 2


def probe_is_cheaper(candidates, stored):
    """The direction rule: probe the candidates or filter the stored cells.

    ``candidates`` is the chunk's share of the selection's cross product
    (the product of its per-dimension slab sizes), ``stored`` its valid
    cell count; both may be integer arrays, one chunk per element.  A
    property of the input alone, so a partition — a sub-range of the
    same walk — decides every chunk as the whole scan does, and the
    planner's estimates can apply it to catalog statistics.
    """
    # a count's bit length is its binary exponent (exact below 2**53)
    return (
        candidates * np.frexp(stored)[1]
        <= stored * PROBE_STEPS_PER_STORED_CELL
    )


def flat_slabs(
    geometry, masks: list[np.ndarray], terms: list[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per dimension, the selected indices' offset (``int32``, like every
    decoded chunk's offsets, so ``searchsorted`` compares in place) and
    result contributions, ascending, and where each grid coordinate's
    slab of them starts (``grid + 1`` bounds)."""
    slabs = []
    for mask, targets, extent, stride, cells in zip(
        masks, terms, geometry.chunk_shape, geometry.cell_strides, geometry.grid
    ):
        selected = np.flatnonzero(mask)
        slab, local = np.divmod(selected, extent)
        slabs.append((
            (local * stride).astype(np.int32),
            targets[selected],
            np.searchsorted(slab, np.arange(cells + 1)),
        ))
    return slabs


def selection_slabs(
    geometry, masks: list[np.ndarray], terms: list[np.ndarray]
) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """:func:`flat_slabs` cut per (dimension, grid coordinate): the slab
    every chunk at that coordinate shares."""
    return [
        [(offsets[a:b], results[a:b]) for a, b in zip(starts, starts[1:])]
        for offsets, results, starts in flat_slabs(geometry, masks, terms)
    ]


def grid_coords(geometry, chunk_nos) -> np.ndarray:
    """``(chunks, ndim)`` grid coordinates of many chunks at once."""
    chunk_nos = np.asarray(chunk_nos, dtype=np.int64).reshape(-1, 1)
    return chunk_nos // geometry.grid_strides % geometry.grid


def chunk_shares(geometry, sizes: list[np.ndarray], chunk_nos) -> np.ndarray:
    """``(chunks, ndim)``: each chunk's slab sizes, whose row product is
    its share of the cross product (its candidates)."""
    coords = grid_coords(geometry, chunk_nos)
    return np.stack([size[coords[:, d]] for d, size in enumerate(sizes)], axis=1)


def probe_candidates(geometry, slabs, chunk_nos):
    """§4.2's enumeration, once for every chunk of ``chunk_nos``:
    ``(bounds, offsets, results)``, each cross-product element's offset
    in its chunk (``int32``) and its result cell, chunk by chunk in the
    order given and, within a chunk, in ascending offset.  Chunk ``i``'s
    elements are ``bounds[i]:bounds[i + 1]``.

    A chunk's elements are the row-major cross product of its slabs.
    Chunks whose slabs have the same sizes are enumerated together, as
    one broadcast sum over a ``(chunks, *sizes)`` block, and each
    chunk's row of the block is put at its bounds.
    """
    coords = grid_coords(geometry, chunk_nos)
    sizes = chunk_shares(geometry, [np.diff(slab[2]) for slab in slabs], chunk_nos)
    bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes.prod(axis=1), out=bounds[1:])
    offsets = np.empty(bounds[-1], dtype=np.int32)
    results = np.empty(bounds[-1], dtype=np.int64)
    # one number per size vector (a slab holds at most its chunk extent)
    radix = np.cumprod([1, *[e + 1 for e in geometry.chunk_shape[:0:-1]]])
    _, shape_at, shape_of = np.unique(
        sizes @ radix[::-1], return_index=True, return_inverse=True
    )
    for shape_no, shape in enumerate(sizes[shape_at].tolist()):
        members = np.flatnonzero(shape_of == shape_no)
        block_offsets = block_results = 0
        for d, size in enumerate(shape):
            first = slabs[d][2][coords[members, d]]
            at = first[:, None] + np.arange(size)
            axes = [len(members)] + [1] * geometry.ndim
            axes[d + 1] = size
            block_offsets = block_offsets + slabs[d][0][at].reshape(axes)
            block_results = block_results + slabs[d][1][at].reshape(axes)
        if len(shape_at) == 1:  # every chunk alike: the block is the whole
            return bounds, block_offsets.ravel(), block_results.ravel()
        where = (bounds[members][:, None] + np.arange(math.prod(shape))).ravel()
        offsets[where] = block_offsets.ravel()
        results[where] = block_results.ravel()
    return bounds, offsets, results


def _probe_chunk(candidates, offsets) -> tuple[np.ndarray, np.ndarray]:
    """§4.2 for one chunk: its candidate offsets (ascending, the paper's
    "increasing order of their chunk offsets") binary-searched in its
    sorted offsets, all at once.  Returns which candidates hit and the
    stored positions they hit."""
    positions = np.searchsorted(offsets, candidates)
    np.minimum(positions, len(offsets) - 1, out=positions)
    hits = offsets[positions] == candidates
    return hits, positions[hits]


def _filter_chunk(accumulator, selected, chunk: DecodedChunk) -> int:
    """§4.1 with the selection as a cell mask: the membership tables pick
    the survivors from the chunk's split offsets, and only their halves
    go through the accumulator's composed tables.  Returns the survivors."""
    keep = selected.gather(chunk.origin, chunk.halves)
    if keep is not None:
        chunk = chunk.take(np.flatnonzero(keep))
    if len(chunk):
        accumulator.add_chunk(chunk)
    return len(chunk)


def _select_vectorized(array, accumulator, chunk_range, masks, counters) -> int:
    """The one selection kernel: each chunk the walk yields is probed or
    filtered, whichever :func:`probe_is_cheaper` says of the chunk's
    candidates and the stored cells the chunk directory records for it.

    The probed chunks' candidates are enumerated once, before the walk
    (:func:`probe_candidates`); a probed chunk then costs a slice, one
    ``searchsorted`` and one compare, and a run of consecutive probed
    chunks folds its hits in one ``add_many``, flushed before the next
    filtered chunk.  Both directions fold the same cells in ascending
    offset order, chunk by chunk, so the result — float sums included —
    does not depend on the choice.
    """
    geometry = array.geometry
    slabs = flat_slabs(geometry, masks, accumulator.target_terms())
    walked = geometry.overlapping_chunks(chunk_range, masks)
    probing = []
    if walked:  # else the walk reads nothing, the directory included
        entries = array._entries(counters)
        stored = np.array([entries[chunk_no][2] for chunk_no in walked])
        shares = chunk_shares(geometry, [np.diff(s[2]) for s in slabs], walked)
        probing = np.asarray(walked)[
            (stored > 0) & probe_is_cheaper(shares.prod(axis=1), stored)
        ].tolist()
    bounds, candidate_offsets, candidate_results = probe_candidates(
        geometry, slabs, probing
    )
    spans = dict(zip(probing, zip(bounds.tolist(), bounds[1:].tolist())))
    selected = ComposedTables(geometry, masks, np.logical_and)
    cells: list[np.ndarray] = []  # the run's hits, not yet folded
    rows: list[np.ndarray] = []

    def fold_run() -> None:
        if cells:
            accumulator.add_many(np.concatenate(cells), np.concatenate(rows))
            cells.clear()
            rows.clear()

    scanned = probed = 0
    for chunk in array.walk(chunk_range, masks, counters):
        span = spans.get(chunk.no)
        if span is None:
            fold_run()
            scanned += _filter_chunk(accumulator, selected, chunk)
            continue
        low, high = span
        hits, found = _probe_chunk(candidate_offsets[low:high], chunk.offsets)
        probed += high - low
        if len(found):
            cells.append(candidate_results[low:high][hits])
            rows.append(chunk.values[found])
            scanned += len(found)
    fold_run()
    if probed:
        counters.add("cells_probed", probed)
    return scanned


def estimate_chunk_range(
    array: OLAPArray,
    chunk_range: range,
    masks: list[np.ndarray] | None = None,
) -> dict[str, int]:
    """What :func:`scan_chunk_range` over ``chunk_range`` will bill,
    read off the resident chunk directory
    (:meth:`~repro.core.olap_array.OLAPArray.chunk_directory`) alone.

    The chunk keys are exact cold (the walk prunes by the same grid
    overlap and skips the same empty entries); ``cells_probed`` applies
    :func:`probe_is_cheaper` to each chunk's stored-cell count as the
    kernel does; ``cells_scanned`` scales it by the selected share of
    the chunk's index box, exact only for uniformly spread cells.  A
    chunk's candidates and valid cells are outer products of per-axis
    counts, so no chunk is priced by a call of its own.
    """
    geometry = array.geometry
    first, stop = chunk_range.start, chunk_range.stop
    if masks is None:
        walked = np.arange(first, stop)
    else:
        # a chunk's share of the cross product; the walk prunes the
        # chunks it leaves empty
        candidates = outer_fold(
            np.multiply,
            [
                np.add.reduceat(mask, np.arange(0, len(mask), extent), dtype=np.int64)
                for mask, extent in zip(masks, geometry.chunk_shape)
            ],
        )
        walked = np.flatnonzero(candidates[first:stop]) + first
    oids, lengths, stored = array.chunk_directory()[walked].T
    read = (oids != NO_CHUNK) & (stored > 0)
    chunk_nos, lengths, stored = walked[read], lengths[read], stored[read]
    estimate = {
        "chunks_skipped": len(chunk_range) - len(walked),
        "empty_chunks_skipped": len(walked) - len(chunk_nos),
        "chunks_read": len(chunk_nos),
        "chunk_bytes_read": int(lengths.sum()),
        "cells_probed": 0,
        "cells_scanned": int(stored.sum()),
    }
    if masks is None:
        return estimate
    candidates = candidates[chunk_nos]
    valid = geometry.chunk_valid_cells[chunk_nos]
    probed = probe_is_cheaper(candidates, stored)
    estimate["cells_probed"] = int(candidates[probed].sum())
    # summed chunk by chunk in walk order, as a running total would be
    scanned = np.cumsum(stored * candidates / valid)
    estimate["cells_scanned"] = round(float(scanned[-1])) if len(scanned) else 0
    return estimate


def scan_chunk_range(
    array: OLAPArray,
    accumulator: ResultAccumulator,
    chunk_range,
    kernel: str = "vectorized",
    allowed: list[list[int]] | None = None,
    counters: Counters | None = None,
) -> int:
    """Run the §4.1 scan over a range of chunk numbers.

    A partition (a shard task, see :mod:`repro.shard.worker`) is this
    over a sub-range with an accumulator of its own; partials combine
    with :meth:`ResultAccumulator.merge_from`.  Returns the number of
    valid cells folded in.

    ``kernel`` is ``"vectorized"``, the composed-table kernel every
    query runs, or ``"interpreted"``, the per-cell address loop exactly
    as the pseudo-code reads — the reference the first is tested
    against.  Both fold each chunk's cells in offset order, so they
    leave the same state.

    ``allowed`` (per-dimension sorted index lists, the §4.2 "final
    lists") pushes a selection into the scan: chunks whose index box
    misses the selection are skipped without a read, and inside the
    surviving chunks only the selected cells are folded — by the
    selection kernel, which probes or filters each chunk, whichever is
    cheaper.  ``counters`` is billed everything the scan spends — the
    walk's chunk keys, ``cells_scanned`` (stored cells folded into the
    result) and ``cells_probed`` (cross-product elements binary-searched;
    default: the array's own bag).
    """
    if kernel not in _KERNELS:
        raise QueryError(
            f"unknown kernel {kernel!r}; expected one of {_KERNELS}"
        )
    counters = array.counters if counters is None else counters
    masks = allowed_masks(array, allowed) if allowed is not None else None
    if masks is not None and kernel == "vectorized":
        scanned = _select_vectorized(
            array, accumulator, chunk_range, masks, counters
        )
    else:
        scan = _scan_interpreted if kernel == "interpreted" else _scan_vectorized
        scanned = scan(
            array,
            accumulator,
            array.selected_cells(chunk_range, masks, counters),
        )
    counters.add("cells_scanned", scanned)
    return scanned


def consolidate(
    array: OLAPArray,
    specs: list[ConsolidationSpec],
    aggregate: str | list[str] = "sum",
    counters: Counters | None = None,
    materialize_as: str | None = None,
) -> ConsolidationResult:
    """Run the §4.1 consolidation over a whole array.

    With ``materialize_as`` the result is also persisted as a new OLAP
    array of that name.
    """
    counters = counters if counters is not None else Counters()
    tracer = get_tracer()
    with tracer.span("resolve_mappings"):
        accumulator = ResultAccumulator(array, specs, aggregate, counters)
    with tracer.span("scan_chunks", chunks=array.geometry.n_chunks):
        scan_chunk_range(
            array,
            accumulator,
            range(array.geometry.n_chunks),
            counters=counters,
        )
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
    # one stored dtype for every measure: each aggregate's own, widened
    produced = {
        _RESULT_DTYPES.get(n, array.dtype) for n in accumulator.agg_names
    }
    dtype = "int64" if produced == {"int64"} else "float64"
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
