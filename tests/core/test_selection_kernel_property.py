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
the cold counters of the kernel that enumerated chunk by chunk.  Every
case is also run warm — twice over a decoded-chunk cache, the second
run folding the cached records' kept offset halves — and must leave the
cold state bit for bit, at the half-dtype boundaries too.  Last, a
Hypothesis property stacks dense, all-miss, short, sparse and empty
chunks in any order and checks the run-wise probe (one compare and one
fold a run) against a probe and a fold per chunk, bit for bit.
"""

import importlib
import itertools
import random
from bisect import bisect_left

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConsolidationSpec
from repro.core.builder import DimensionData, build_olap_array
from repro.core.chunking import ComposedTables
from repro.core.consolidate import (
    ResultAccumulator,
    _filter_chunk,
    allowed_masks,
    flat_slabs,
    probe_candidates,
    probe_is_cheaper,
    scan_chunk_range,
)
from repro.storage import BufferPool, FileManager, SimulatedDisk
from repro.util.stats import Counters
from tests.core.test_offset_kernel_property import (
    BOUNDARIES,
    assert_same_state,
    boundary_case,
    brute_force,
    build,
    cases,
    every_third,
    warm_scans,
)


def probe_one_chunk(candidates, offsets):
    """§4.2 for one chunk, the per-chunk reference the kernel's run-wise
    probe is checked against: the chunk's candidate offsets (ascending)
    binary-searched in its sorted offsets.  Returns which candidates hit
    and the stored positions they hit."""
    positions = np.searchsorted(offsets, candidates)
    np.minimum(positions, len(offsets) - 1, out=positions)
    hits = offsets[positions] == candidates
    return hits, positions[hits]


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
    for chunk in array.walk(range(geometry.n_chunks), masks):
        low, high = bounds[walked.index(chunk.no) :][:2]
        hits, found = probe_one_chunk(candidates[low:high], chunk.offsets)
        if len(found):
            probed.add_many(results[low:high][hits], chunk.values[found])
        kept = _filter_chunk(filtered, selected, chunk)
        assert len(found) == kept, chunk.no
        asked.append((int(high - low), len(chunk)))
    return probed, filtered, asked


def selection_slabs(geometry, masks, terms):
    """:func:`flat_slabs` cut per (dimension, grid coordinate): the slab
    every chunk at that coordinate shares."""
    return [
        [(offsets[a:b], results[a:b]) for a, b in zip(starts, starts[1:])]
        for offsets, results, starts in flat_slabs(geometry, masks, terms)
    ]


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
    for chunk in array.walk(range(geometry.n_chunks), masks):
        contribs = [
            list(zip(part[0].tolist(), part[1].tolist()))
            for part in (
                slabs[d][g]
                for d, g in enumerate(geometry.chunk_coords(chunk.no))
            )
        ]
        offset_list = chunk.offsets.tolist()
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
                np.array(linear, dtype=np.int64), chunk.values[positions]
            )
    return accumulator, probed


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

    # warm: the cached records' kept halves fold as the cold ones did
    for warm in warm_scans(array, specs, aggregates, allowed):
        assert_same_state(warm, probed)


def test_both_directions_at_half_dtype_boundaries():
    """The offset-kernel property's boundary arrays under a selection that
    keeps every third index: both directions, the public scan and its
    warm runs leave one state."""
    for shape, chunk_shape, _ in BOUNDARIES:
        allowed = every_third(shape)
        case = boundary_case(shape, chunk_shape, allowed)
        array = build(case)
        specs, aggregates = case["specs"], case["aggregates"]
        probed, filtered, _ = fold_both_directions(array, specs, aggregates, allowed)
        assert_same_state(probed, filtered)
        assert probed.rows() == brute_force(case, allowed)
        for warm in warm_scans(array, specs, aggregates, allowed):
            assert_same_state(warm, probed)


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


# -- the run-batched probe against the per-chunk reference --------------------
#
# Chunks of 4×8 cells stacked along the first axis, under a selection of
# one or two columns (4 or 8 candidates a chunk), each chunk one of five
# kinds: ``dense`` (all 32 cells, probed), ``miss`` (every unselected
# cell, probed, no candidate hits), ``low`` (rows 0-2 only, probed, the
# row-3 candidates lie past its last offset), ``sparse`` (two cells,
# filtered, so it breaks a run) and ``empty`` (skipped by the walk).

RUN_KINDS = ("dense", "miss", "low", "sparse", "empty")


def stacked_chunks_array(kinds, columns, seed):
    rng = random.Random(seed)
    facts = []
    for chunk, kind in enumerate(kinds):
        cells = [(4 * chunk + row, col) for row in range(4) for col in range(8)]
        if kind == "miss":
            cells = [cell for cell in cells if cell[1] not in columns]
        elif kind == "low":
            cells = cells[:24]
        elif kind == "sparse":
            cells = [cells[columns[0]], cells[8 + (columns[0] + 1) % 8]]
        elif kind == "empty":
            cells = []
        # float measures that are not dyadic: the fold order shows
        facts += [cell + (rng.random() * 100, rng.random()) for cell in cells]
    dimensions = [
        DimensionData("dim0", list(range(4 * len(kinds)))),
        DimensionData("dim1", list(range(8)), {"h1": [f"L{c % 3}" for c in range(8)]}),
    ]
    fm = FileManager(BufferPool(SimulatedDisk(page_size=1024), 512 * 1024))
    return build_olap_array(
        fm, "stacked", dimensions, facts, chunk_shape=(4, 8), dtype="float64"
    )


def probe_chunk_by_chunk(array, specs, aggregates, allowed):
    """The kernel's direction rule, but each probed chunk searched and
    folded alone (one ``add_many`` a chunk).  Returns the accumulator,
    the elements probed, the cells folded and, per walked chunk,
    ``(probed?, candidates, hits, past its last offset?)``."""
    geometry = array.geometry
    masks = allowed_masks(array, allowed)
    accumulator = ResultAccumulator(array, specs, aggregates)
    walked = geometry.overlapping_chunks(range(geometry.n_chunks), masks)
    bounds, candidates, results = probe_candidates(
        geometry, flat_slabs(geometry, masks, accumulator.target_terms()), walked
    )
    selected = ComposedTables(geometry, masks, np.logical_and)
    probed = scanned = 0
    chunks = []
    for chunk in array.walk(range(geometry.n_chunks), masks):
        low, high = bounds[walked.index(chunk.no) :][:2]
        if not probe_is_cheaper(high - low, len(chunk)):
            scanned += _filter_chunk(accumulator, selected, chunk)
            chunks.append((False, high - low, None, None))
            continue
        share = candidates[low:high]
        hits, found = probe_one_chunk(share, chunk.offsets)
        if len(found):
            accumulator.add_many(results[low:high][hits], chunk.values[found])
        probed += high - low
        scanned += len(found)
        chunks.append(
            (True, high - low, len(found), bool(share.max() > chunk.offsets[-1]))
        )
    return accumulator, probed, scanned, chunks


def run_probe_against_reference(kinds, columns, seed):
    array = stacked_chunks_array(kinds, columns, seed)
    specs = [ConsolidationSpec.drop(), ConsolidationSpec.level("h1")]
    aggregates = ["sum", "var"]
    allowed = [list(range(4 * len(kinds))), sorted(columns)]
    reference, probed, scanned, chunks = probe_chunk_by_chunk(
        array, specs, aggregates, allowed
    )
    counters = Counters()
    public = ResultAccumulator(array, specs, aggregates)
    assert scan_chunk_range(
        array, public, range(array.geometry.n_chunks), allowed=allowed,
        counters=counters,
    ) == scanned
    assert_same_state(public, reference)
    assert counters.get("cells_probed") == probed
    assert counters.get("cells_scanned") == scanned
    return chunks


@settings(max_examples=150, deadline=None)
@given(
    # the loader reads the measure count off the first fact
    st.lists(st.sampled_from(RUN_KINDS), min_size=1, max_size=10).filter(
        lambda kinds: set(kinds) != {"empty"}
    ),
    st.lists(st.integers(0, 7), min_size=1, max_size=2, unique=True),
    st.integers(0, 2**16),
)
def test_the_run_batched_probe_equals_the_per_chunk_reference(kinds, columns, seed):
    """Runs of probed chunks broken anywhere by filtered or empty ones:
    the kernel's one compare and one ``add_many`` a run leave the state
    of a probe and a fold per chunk, float sums bit for bit, with the
    same ``cells_probed`` and ``cells_scanned``."""
    chunks = run_probe_against_reference(kinds, columns, seed)
    kinds = [kind for kind in kinds if kind != "empty"]
    assert [probed for probed, *_ in chunks] == [
        kind != "sparse" for kind in kinds
    ]


def test_the_stacked_kinds_cover_what_the_property_claims():
    """One draw holding each case the property is for: a probed chunk
    whose candidates all miss, one whose candidates run past its last
    offset, and runs broken by a filtered chunk."""
    kinds = ["dense", "miss", "sparse", "low", "dense", "empty", "sparse", "dense"]
    chunks = run_probe_against_reference(kinds, [2, 5], seed=5)
    assert chunks == [
        (True, 8, 8, False),
        (True, 8, 0, False),
        (False, 8, None, None),
        (True, 8, 6, True),
        (True, 8, 8, False),
        (False, 8, None, None),
        (True, 8, 8, False),
    ]


def test_membership_tables_are_built_by_the_first_filtered_chunk(monkeypatch):
    """A query whose chunks all probe builds no membership table; one
    filtered chunk builds them once."""
    # the package exports a function of the module's name
    kernel_module = importlib.import_module("repro.core.consolidate")
    built = []

    def counted(geometry, terms, op):
        built.append(op)
        return ComposedTables(geometry, terms, op)

    monkeypatch.setattr(kernel_module, "ComposedTables", counted)
    run_probe_against_reference(["dense", "miss", "low", "dense"], [2, 5], seed=3)
    assert built == []  # no membership table, nor the filter's target table
    run_probe_against_reference(["dense", "sparse", "low", "sparse"], [2, 5], seed=3)
    assert built.count(np.logical_and) == 1
