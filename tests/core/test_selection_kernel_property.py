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
*do* depend on the order they are added in.  The kernel enumerates its
probed chunks' candidates once a query and folds a run of probed chunks
in one ``add_many``; a second deterministic case pins that runs fold in
walk order, that sub-ranges merge to the whole range, and a table pins
the cold counters of the kernel that enumerated chunk by chunk.
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
    flat_slabs,
    probe_candidates,
    probe_is_cheaper,
    scan_chunk_range,
    selection_slabs,
)
from repro.storage import BufferPool, FileManager, SimulatedDisk
from repro.util.stats import Counters
from tests.core.test_offset_kernel_property import brute_force, build, cases


def fold_both_directions(array, specs, aggregates, allowed):
    """Drive every walked chunk through each direction *directly*: the
    probe over that chunk's slice of the query's one enumeration, its
    hits folded chunk by chunk.

    Returns the two accumulators and, per walked chunk, ``(candidates,
    stored)`` — what the direction rule is asked about.
    """
    geometry = array.geometry
    masks = allowed_masks(array, allowed)
    probed = ResultAccumulator(array, specs, aggregates)
    filtered = ResultAccumulator(array, specs, aggregates)
    walked = geometry.overlapping_chunks(range(geometry.n_chunks), masks)
    bounds, candidates, results = probe_candidates(
        geometry, flat_slabs(geometry, masks, probed.target_terms()), walked
    )
    selected = ComposedTables(geometry, masks, np.logical_and)
    asked = []
    for chunk_no, offsets, values in array.walk(
        range(geometry.n_chunks), masks
    ):
        low, high = bounds[walked.index(chunk_no) :][:2]
        hits, found = _probe_chunk(candidates[low:high], offsets)
        if len(found):
            probed.add_many(results[low:high][hits], values[found])
        kept = _filter_chunk(
            filtered, selected, geometry.chunk_origin(chunk_no), offsets, values
        )
        assert len(found) == kept, chunk_no
        asked.append((int(high - low), len(offsets)))
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


def alternating_runs_array():
    """16×6×6 cells in eight 2×6×6 chunks along the first axis, dense
    (all 72 cells) or sparse (six) in the pattern D D S D D D S S; float
    measures that are not dyadic.  Under :data:`RUNS_ALLOWED` every
    chunk offers 2·2·3 = 12 candidates: a dense chunk probes (12·7 ≤
    2·72), a sparse one filters (12·3 > 2·6) and keeps one cell."""
    rng = random.Random(23)
    facts = []
    for chunk, kind in enumerate("DDSDDDSS"):
        rows = (2 * chunk, 2 * chunk + 1)
        if kind == "D":
            cells = itertools.product(rows, range(6), range(6))
        else:  # six cells in the chunk's first row, (row, 0, 1) selected
            cells = ((rows[0], j, (j + 1) % 6) for j in range(6))
        facts += [cell + (rng.random() * 100, rng.random()) for cell in cells]
    dimensions = [
        DimensionData(f"dim{d}", list(range(size)))
        for d, size in enumerate((16, 6, 6))
    ]
    fm = FileManager(BufferPool(SimulatedDisk(page_size=1024), 512 * 1024))
    return build_olap_array(
        fm, "runs", dimensions, facts, chunk_shape=(2, 6, 6), dtype="float64"
    )


RUNS_ALLOWED = [list(range(16)), [0, 3], [1, 2, 5]]
RUNS_SPECS = [ConsolidationSpec.key(), ConsolidationSpec.drop(), ConsolidationSpec.key()]


def test_a_run_of_probed_chunks_folds_once_before_the_next_filtered_chunk():
    array = alternating_runs_array()
    aggregates = ["sum", "var"]
    public = ResultAccumulator(array, RUNS_SPECS, aggregates)
    folds = []
    add_many = public.add_many
    public.add_many = lambda linear, values: (
        folds.append(len(linear)),
        add_many(linear, values),
    )
    counters = Counters()
    scanned = scan_chunk_range(
        array,
        public,
        range(array.geometry.n_chunks),
        allowed=RUNS_ALLOWED,
        counters=counters,
    )
    # probed chunks 0-1 (2 × 12 hits), filtered 2, probed 3-5, filtered 6, 7
    assert folds == [24, 1, 36, 1, 1]
    assert scanned == counters.get("cells_scanned") == 63
    assert counters.get("cells_probed") == 5 * 12

    # the fold order is the chunk-by-chunk one: float sums bit for bit
    written, elements = probe_as_written(array, RUNS_SPECS, aggregates, RUNS_ALLOWED)
    assert elements == 8 * 12
    assert_same_state(public, written)
    probed, filtered, _ = fold_both_directions(
        array, RUNS_SPECS, aggregates, RUNS_ALLOWED
    )
    assert_same_state(probed, public)
    assert_same_state(filtered, public)
    interpreted = ResultAccumulator(array, RUNS_SPECS, aggregates)
    scan_chunk_range(
        array,
        interpreted,
        range(array.geometry.n_chunks),
        "interpreted",
        allowed=RUNS_ALLOWED,
    )
    assert_same_state(interpreted, public)


def test_sub_ranges_merged_equal_the_whole_range():
    """A partition is a sub-range of the same walk: each half enumerates
    its own probed chunks, and the merged halves leave the whole range's
    state (each result cell lives in one half, so merging adds nothing
    to a float sum but the other half's zero) and its counts."""
    array = alternating_runs_array()
    aggregates = ["sum", "var"]
    n_chunks = array.geometry.n_chunks
    whole, whole_counts = ResultAccumulator(array, RUNS_SPECS, aggregates), Counters()
    scan_chunk_range(
        array, whole, range(n_chunks), allowed=RUNS_ALLOWED, counters=whole_counts
    )
    for split in range(n_chunks + 1):
        halves, counts = [], Counters()
        for part in (range(0, split), range(split, n_chunks)):
            halves.append(ResultAccumulator(array, RUNS_SPECS, aggregates))
            scan_chunk_range(
                array, halves[-1], part, allowed=RUNS_ALLOWED, counters=counts
            )
        halves[0].merge_from(halves[1])
        assert_same_state(halves[0], whole)
        for name in ("cells_probed", "cells_scanned", "chunks_read"):
            assert counts.get(name) == whole_counts.get(name), (split, name)


class TestCounterTable:
    """What a cold array query bills does not depend on how the probe
    direction enumerates its candidates: the values are what the kernel
    that rebuilt each chunk's candidates read, at ``small`` scale (8×8×8
    ×100 cells in 80 chunks of 4×4×4×10), run in this order on one
    engine.  ``prunes_every_chunk`` ANDs two values of one attribute."""

    KEYS = ("cells_probed", "cells_scanned", "chunks_read", "dir_loads",
            "pages_read", "seeks")
    GOLDEN = {
        "query2": (10, 2, 10, 1, 108, 27),
        "cut_1d": (0, 670, 40, 1, 292, 16),
        "cut_2d": (0, 85, 20, 1, 159, 13),
        "cut_3d": (100, 13, 10, 1, 93, 12),
        "empty_in_list": (0, 0, 0, 0, 8, 5),
        "prunes_every_chunk": (0, 0, 0, 0, 8, 5),
    }

    def test_cold_counters_match_the_per_chunk_kernel(self):
        from repro.bench import bench_settings, build_cube_engine, query2_for
        from repro.data.datasets import dataset1
        from repro.olap import ConsolidationQuery, SelectionPredicate

        config = dataset1("small")[1]
        engine = build_cube_engine(config, bench_settings("small"))

        def cut(*dims, value="AA1", extra=()):
            return ConsolidationQuery.build(
                config.name,
                group_by={"dim3": "h31", "dim0": "h01"},
                selections=[
                    SelectionPredicate.in_list(f"dim{d}", f"h{d}1", value)
                    for d in dims
                ]
                + list(extra),
            )

        queries = {
            "query2": query2_for(config),
            "cut_1d": cut(0),
            "cut_2d": cut(0, 1),
            "cut_3d": cut(0, 1, 2),
            "empty_in_list": cut(0, value="ZZ9"),
            "prunes_every_chunk": cut(
                1, extra=[SelectionPredicate.in_list("dim1", "h11", "AA2")]
            ),
        }
        measured = {}
        for name, query in queries.items():
            stats = engine.query(query, backend="array").stats
            measured[name] = tuple(int(stats.get(key, 0)) for key in self.KEYS)
        assert measured == self.GOLDEN
