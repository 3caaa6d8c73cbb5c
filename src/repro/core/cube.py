"""The CUBE operator on the OLAP Array ADT.

The paper's companion work ([ZDN97], "An Array-Based Algorithm for
Simultaneous Multi-Dimensional Aggregates") computes *all* 2ⁿ group-bys
of a cube from the chunked array in a single pass.  This module brings
that operator to the ADT: one walk of the chunks, with each cell's
``offsetInChunk`` split once and every subset's accumulator gathering
its result cell from its own composed tables.

Compared with running 2ⁿ separate consolidations, the shared scan pays
for chunk I/O and decompression once — the ablation
``benchmarks/test_ablation_cube.py`` quantifies the saving.
"""

from __future__ import annotations

from itertools import combinations

from repro.core.consolidate import ConsolidationSpec, ResultAccumulator
from repro.core.olap_array import OLAPArray
from repro.errors import QueryError
from repro.obs.tracer import get_tracer
from repro.util.stats import Counters


def _subset_key(array: OLAPArray, subset: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(array.dim_names[d] for d in subset)


def compute_cube(
    array: OLAPArray,
    specs: list[ConsolidationSpec],
    aggregate: str | list[str] = "sum",
    subsets: list[tuple[str, ...]] | None = None,
    counters: Counters | None = None,
) -> dict[tuple[str, ...], list[tuple]]:
    """All 2ⁿ group-bys (or a chosen subset of them) in one chunk scan.

    ``specs`` gives each dimension's grouping level when it *is*
    grouped (``level(attr)`` or ``key()``; ``drop`` is disallowed —
    the cube drops dimensions per subset).  Returns a dict mapping each
    grouped-dimension-name tuple (in cube order; ``()`` is the grand
    total) to its sorted rows.  The scan is billed to ``counters``
    (default: the array's own bag).
    """
    ndim = array.geometry.ndim
    if len(specs) != ndim:
        raise QueryError(f"need one spec per dimension ({ndim})")
    if any(spec.kind == "drop" for spec in specs):
        raise QueryError("cube specs must not contain drop(); every "
                         "dimension is dropped in some subset anyway")
    counters = array.counters if counters is None else counters

    all_subsets = [
        subset
        for size in range(ndim + 1)
        for subset in combinations(range(ndim), size)
    ]
    if subsets is not None:
        wanted = {tuple(s) for s in subsets}
        known = {_subset_key(array, s) for s in all_subsets}
        unknown = wanted - known
        if unknown:
            raise QueryError(f"unknown cube subsets: {sorted(unknown)}")
        all_subsets = [
            s for s in all_subsets if _subset_key(array, s) in wanted
        ]

    geometry = array.geometry
    tracer = get_tracer()
    with tracer.span("resolve_mappings", subsets=len(all_subsets)):
        accumulators = {
            subset: ResultAccumulator(
                array,
                [
                    specs[d] if d in subset else ConsolidationSpec.drop()
                    for d in range(ndim)
                ],
                aggregate,
                counters,
            )
            for subset in all_subsets
        }

    with tracer.span("cube_scan", chunks=geometry.n_chunks):
        scanned = 0
        for chunk in array.walk(range(geometry.n_chunks), None, counters):
            scanned += len(chunk)
            for accumulator in accumulators.values():
                accumulator.add_chunk(chunk)
        counters.add("cells_scanned", scanned)
        counters.add("group_bys_computed", len(accumulators))

    with tracer.span("extract_rows"):
        return {
            _subset_key(array, subset): accumulator.rows()
            for subset, accumulator in accumulators.items()
        }
