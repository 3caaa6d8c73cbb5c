"""§4.2: the OLAP Array consolidation algorithm with selection.

    For each join dimension table {
        Use the B-tree to retrieve the index list for the selected values;
        Merge those index lists to generate the final list;
    }
    Generate the cross-product of the final lists;
    For each cross-product element {
        calculate the chunk number and chunk offset;
        probe the chunk;
        if (cross-product element is valid)
            aggregate the array cell to the results;
    }

With the paper's three optimizations:

1. cross-product elements are generated **chunk by chunk in
   chunk-number order**, so chunks are visited in their physical disk
   order and a chunk containing no cross-product element is never read;
2. chunk payloads keep cells sorted by offset, so each probe is a
   **binary search**;
3. within a chunk, elements are generated in increasing offset order.

Optimization 1 is the one chunk walk every array operator shares
(:meth:`OLAPArray.walk <repro.core.olap_array.OLAPArray.walk>`, its
masks the final lists); the probe is a per-chunk kernel over it.  The
final lists go to :func:`~repro.core.consolidate.scan_chunk_range` —
the same call a shard task makes — whose selection kernel probes a
chunk's elements in one ``searchsorted`` when they are few against its
stored cells, and masks the stored cells instead when they are not.

``order="naive"`` disables optimization 1/3 (the ablation ``abl5``):
elements stream in global index order and every element re-derives and
re-reads its chunk through the buffer pool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.core.consolidate import (
    ConsolidationResult,
    ConsolidationSpec,
    ResultAccumulator,
    scan_chunk_range,
)
from repro.core.olap_array import OLAPArray
from repro.errors import DimensionError, QueryError
from repro.obs.tracer import get_tracer
from repro.util.stats import Counters


@dataclass(frozen=True)
class Selection:
    """An equality / IN-list / range predicate on one dimension attribute.

    ``attr=None`` selects on the dimension *key* attribute itself (the
    index list then comes from the dimension's key B-tree instead of an
    attribute B-tree).  Exactly one of ``values`` (IN-list) or
    ``low``/``high`` (an inclusive BETWEEN, either bound open) must be
    given.
    """

    dim: int | str
    attr: str | None
    values: tuple | None = None
    low: object = None
    high: object = None

    def __post_init__(self):
        is_range = self.low is not None or self.high is not None
        if is_range and self.values is not None:
            raise QueryError("give either values or a range, not both")
        if not is_range and not self.values:
            raise QueryError(
                f"selection on {self.attr!r} needs at least one value"
            )

    @property
    def is_range(self) -> bool:
        """Whether this is a BETWEEN predicate."""
        return self.values is None


def _final_index_lists(
    array: OLAPArray, selections: list[Selection], counters: Counters
) -> list[list[int]]:
    """Per-dimension sorted "final lists" of selected array indices.

    Within one selection, values OR together; multiple selections on
    the same dimension AND together; unselected dimensions keep every
    index.
    """
    per_dim: list[set[int] | None] = [None] * array.geometry.ndim
    for selection in selections:
        d = array.dim_no(selection.dim)
        matched: set[int] = set()
        if selection.attr is None:
            if selection.is_range:
                matched.update(
                    array.dims[d].range_of(selection.low, selection.high)
                )
                counters.add("btree_probes")
            else:
                for value in selection.values:
                    try:
                        matched.add(array.dims[d].index_of(value))
                    except DimensionError:  # unknown key selects nothing
                        pass
                    counters.add("btree_probes")
        else:
            tree = array.attribute_index(d, selection.attr)
            if selection.is_range:
                matched.update(
                    v for _, v in tree.range_search(selection.low, selection.high)
                )
                counters.add("btree_probes")
            else:
                for value in selection.values:
                    matched.update(tree.search(value))
                    counters.add("btree_probes")
        per_dim[d] = matched if per_dim[d] is None else per_dim[d] & matched
    final_lists = [
        sorted(chosen) if chosen is not None else list(range(size))
        for chosen, size in zip(per_dim, array.geometry.shape)
    ]
    counters.add(
        "cross_product_size",
        float(np.prod([len(lst) for lst in final_lists])),
    )
    return final_lists


def consolidate_with_selection(
    array: OLAPArray,
    specs: list[ConsolidationSpec],
    selections: list[Selection],
    aggregate: str | list[str] = "sum",
    order: str = "chunk",
    counters: Counters | None = None,
    cold: bool = False,
) -> ConsolidationResult:
    """The §4.2 algorithm; sorted rows and ``cold`` as in :func:`consolidate`."""
    if order not in ("chunk", "naive"):
        raise QueryError(f"unknown order {order!r}")
    counters = counters if counters is not None else Counters()
    tracer = get_tracer()
    with tracer.span("resolve_mappings"):
        accumulator = ResultAccumulator(array, specs, aggregate, counters)
    with tracer.span("btree_dimension_lookup", selections=len(selections)):
        final_lists = _final_index_lists(array, selections, counters)
    with tracer.span("probe_chunks", order=order):
        if order == "naive":
            _enumerate_naive(array, accumulator, final_lists, counters, cold)
        else:
            scan_chunk_range(
                array,
                accumulator,
                range(array.geometry.n_chunks),
                allowed=final_lists,
                counters=counters,
                cold=cold,
            )
    counters.add("result_cells", accumulator.touched_cells())
    with tracer.span("extract_rows"):
        rows = accumulator.rows()
    return ConsolidationResult(rows=rows, counters=counters)


def _enumerate_naive(
    array: OLAPArray,
    accumulator: ResultAccumulator,
    final_lists: list[list[int]],
    counters: Counters,
    cold: bool,
) -> None:
    """The un-optimized order: global index order, chunk recomputed per
    cell; the hits fold in that order once every element is probed."""
    geometry = array.geometry
    ndim = geometry.ndim
    maps = accumulator.mapping_lists()
    result_strides = accumulator.result_strides
    linear, hits = [], []
    for coords in itertools.product(*final_lists):
        counters.add("cells_probed")
        chunk_no, offset = geometry.locate(coords)
        chunk = array.read_chunk(chunk_no, counters, cold)
        position = int(np.searchsorted(chunk.offsets, offset))
        if position < len(chunk) and chunk.offsets[position] == offset:
            linear.append(
                sum(maps[d][coords[d]] * result_strides[d] for d in range(ndim))
            )
            hits.append(chunk.values[position].tolist())
    if hits:
        accumulator.add_many(
            np.array(linear, dtype=np.int64), np.array(hits, dtype=array.dtype)
        )
