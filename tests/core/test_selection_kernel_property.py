"""The selection kernel's two directions are one fold.

For every chunk the walk yields under a selection, probing the chunk's
candidates (§4.2: one binary search per cross-product element) and
filtering its stored cells (§4.1 with the selection as a cell mask)
pick the same cells and fold them in the same — ascending offset —
order, so two accumulators driven one direction each end in identical
state, float sums bit for bit.  Which direction the rule picks per
chunk therefore cannot show in a result: the public scan == §4.2 as the
paper writes it (one ``bisect`` per cross-product element, chunk by
chunk, :func:`probe_as_written`) == the per-cell reference kernel == a
brute-force fold, whatever the mix.

Geometries, specs and aggregates are ``test_offset_kernel_property``'s
(1-D arrays, size-1 axes, ragged edge chunks, both dtypes); a
deterministic case adds what a random draw rarely holds at once — dense
and near-empty chunks in one array, under float measures whose sums
*do* depend on the order they are added in.
"""

import itertools
import random
from bisect import bisect_left

import numpy as np
from hypothesis import given, settings

from repro.core import ConsolidationSpec
from repro.core.builder import DimensionData, build_olap_array
from repro.core.chunking import ComposedTables
from repro.core.consolidate import (
    ResultAccumulator,
    _filter_chunk,
    _probe_chunk,
    allowed_masks,
    probe_is_cheaper,
    scan_chunk_range,
    selection_slabs,
)
from repro.storage import BufferPool, FileManager, SimulatedDisk
from repro.util.stats import Counters
from tests.core.test_offset_kernel_property import brute_force, build, cases


def fold_both_directions(array, specs, aggregates, allowed):
    """Drive every walked chunk through each direction *directly*.

    Returns the two accumulators and, per walked chunk, ``(candidates,
    stored)`` — what the direction rule is asked about.
    """
    geometry = array.geometry
    masks = allowed_masks(array, allowed)
    probed = ResultAccumulator(array, specs, aggregates)
    filtered = ResultAccumulator(array, specs, aggregates)
    slabs = selection_slabs(geometry, masks, probed.target_terms())
    selected = ComposedTables(geometry, masks, np.logical_and)
    asked = []
    for chunk_no, offsets, values in array.walk(
        range(geometry.n_chunks), masks
    ):
        parts = [
            slabs[d][g] for d, g in enumerate(geometry.chunk_coords(chunk_no))
        ]
        hits = _probe_chunk(probed, parts, offsets, values)
        kept = _filter_chunk(
            filtered, selected, geometry.chunk_origin(chunk_no), offsets, values
        )
        assert hits == kept, chunk_no
        asked.append((int(np.prod([len(p[0]) for p in parts])), len(offsets)))
    return probed, filtered, asked


def probe_as_written(array, specs, aggregates, allowed):
    """§4.2 as the paper writes it: chunk by chunk in chunk-number order,
    every cross-product element in increasing offset order, one
    ``bisect`` each; a chunk's hits fold in that order.

    Returns the accumulator and the number of elements probed.
    """
    geometry = array.geometry
    masks = allowed_masks(array, allowed)
    accumulator = ResultAccumulator(array, specs, aggregates)
    slabs = selection_slabs(geometry, masks, accumulator.target_terms())
    probed = 0
    for chunk_no, offsets, values in array.walk(
        range(geometry.n_chunks), masks
    ):
        contribs = [
            list(zip(part[0].tolist(), part[1].tolist()))
            for part in (
                slabs[d][g]
                for d, g in enumerate(geometry.chunk_coords(chunk_no))
            )
        ]
        offset_list = offsets.tolist()
        linear, positions = [], []
        for element in itertools.product(*contribs):
            probed += 1
            offset = sum(part[0] for part in element)
            position = bisect_left(offset_list, offset)
            if position < len(offset_list) and offset_list[position] == offset:
                linear.append(sum(part[1] for part in element))
                positions.append(position)
        if positions:
            accumulator.add_many(
                np.array(linear, dtype=np.int64), values[positions]
            )
    return accumulator, probed


def assert_same_state(left, right):
    """``export_state()`` equal: same dtypes, same bytes."""
    a, b = left.export_state(), right.export_state()
    assert set(a) == set(b) == {"counts", "columns"}
    mine = [a["counts"], *itertools.chain.from_iterable(a["columns"])]
    theirs = [b["counts"], *itertools.chain.from_iterable(b["columns"])]
    assert len(mine) == len(theirs)
    for column, other in zip(mine, theirs):
        assert column.dtype == other.dtype
        assert column.tobytes() == other.tobytes()


@settings(max_examples=120, deadline=None)
@given(cases().filter(lambda case: case["allowed"] is not None))
def test_probe_and_filter_leave_identical_state(case):
    array = build(case)
    specs, aggregates, allowed = case["specs"], case["aggregates"], case["allowed"]
    expected = brute_force(case, allowed)

    probed, filtered, _ = fold_both_directions(array, specs, aggregates, allowed)
    assert_same_state(probed, filtered)
    assert probed.rows() == expected

    # the public scan, whichever mix of directions the rule picks
    for kernel in ("vectorized", "interpreted"):
        accumulator = ResultAccumulator(array, specs, aggregates)
        scan_chunk_range(
            array,
            accumulator,
            range(array.geometry.n_chunks),
            kernel,
            allowed=allowed,
        )
        assert accumulator.rows() == expected, kernel
        assert_same_state(accumulator, probed)

    written, _ = probe_as_written(array, specs, aggregates, allowed)
    assert_same_state(written, probed)


def mixed_density_array():
    """6×7×5 cells in 3×3×2 chunks (ragged on two axes): the first chunk
    row is full, the rest hold one cell in twelve; float measures are
    not dyadic, so a different fold order would move a sum's last bits."""
    rng = random.Random(17)
    shape, chunk_shape = (6, 7, 5), (3, 3, 2)
    facts = [
        cell + (rng.random() * 100, rng.random())
        for cell in itertools.product(*[range(size) for size in shape])
        if cell[0] < 3 or rng.random() < 1 / 12
    ]
    dimensions = [
        DimensionData(
            f"dim{d}",
            list(range(size)),
            {"h1": [f"L{d}{key % 2}" for key in range(size)]},
        )
        for d, size in enumerate(shape)
    ]
    fm = FileManager(BufferPool(SimulatedDisk(page_size=1024), 512 * 1024))
    return build_olap_array(
        fm, "mixed", dimensions, facts, chunk_shape=chunk_shape, dtype="float64"
    )


def test_dense_and_near_empty_chunks_in_one_array():
    array = mixed_density_array()
    specs = [
        ConsolidationSpec.level("h1"),
        ConsolidationSpec.drop(),
        ConsolidationSpec.key(),
    ]
    aggregates = ["sum", "var"]
    allowed = [[1, 2, 4, 5], [0, 3, 6], [0, 1, 2, 3, 4]]

    probed, filtered, asked = fold_both_directions(
        array, specs, aggregates, allowed
    )
    assert_same_state(probed, filtered)
    # the rule is asked about both kinds of chunk and answers both ways
    answers = {probe_is_cheaper(*pair) for pair in asked}
    assert answers == {True, False}, asked

    counters = Counters()
    public = ResultAccumulator(array, specs, aggregates)
    scanned = scan_chunk_range(
        array,
        public,
        range(array.geometry.n_chunks),
        "vectorized",
        allowed=allowed,
        counters=counters,
    )
    assert_same_state(public, probed)
    assert counters.get("cells_scanned") == scanned == public.export_state()["counts"].sum()
    assert counters.get("cells_probed") == sum(
        candidates for candidates, stored in asked
        if probe_is_cheaper(candidates, stored)
    )

    interpreted = ResultAccumulator(array, specs, aggregates)
    scan_chunk_range(
        array,
        interpreted,
        range(array.geometry.n_chunks),
        "interpreted",
        allowed=allowed,
    )
    # same cells, same order, same IEEE additions: equal, not approx
    assert public.rows() == interpreted.rows()
    assert_same_state(interpreted, public)

    written, elements = probe_as_written(array, specs, aggregates, allowed)
    assert_same_state(written, public)
    # the paper's loop probes every element of every walked chunk
    assert elements == sum(candidates for candidates, _ in asked)
