"""Tests for the §4.2 consolidation-with-selection algorithm."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConsolidationSpec, Selection, consolidate, consolidate_with_selection
from repro.core.builder import build_olap_array
from repro.core.consolidate import ResultAccumulator, scan_chunk_range
from repro.core.select_consolidate import _final_index_lists
from repro.errors import QueryError
from repro.util.stats import Counters

from .conftest import (
    FANOUTS,
    h1,
    h2,
    make_dimensions,
    make_facts,
    reference_rows,
)

LEVEL1 = [ConsolidationSpec.level("h1")] * 3


def selector(selected):
    def check(row):
        return all(
            h1(d, row[d]) == value
            for d, value in enumerate(selected)
            if value is not None
        )

    return check


def select(array, specs, selections, kernel):
    """Rows of ``consolidate_with_selection`` itself (``"vectorized"``)
    or of its final lists through the per-cell reference kernel."""
    if kernel == "vectorized":
        return consolidate_with_selection(array, specs, selections).rows
    accumulator = ResultAccumulator(array, specs)
    scan_chunk_range(
        array,
        accumulator,
        range(array.geometry.n_chunks),
        "interpreted",
        allowed=_final_index_lists(array, selections, Counters()),
    )
    return accumulator.rows()


@pytest.mark.parametrize("kernel", ["interpreted", "vectorized"])
class TestBothModes:
    """The selection kernel and the per-cell reference over the same
    final lists, each against the brute-force fold."""

    def test_select_on_every_dimension(self, cube, kernel):
        array, facts = cube
        selected = ["A00", "A11", "A20"]
        selections = [Selection(d, "h1", (selected[d],)) for d in range(3)]
        rows = select(array, LEVEL1, selections, kernel)
        expected = reference_rows(
            facts,
            [lambda k, d=d: h1(d, k) for d in range(3)],
            selector=selector(selected),
        )
        assert rows == expected

    def test_select_on_subset_of_dimensions(self, cube, kernel):
        array, facts = cube
        selections = [Selection(1, "h1", ("A12",))]
        rows = select(array, LEVEL1, selections, kernel)
        expected = reference_rows(
            facts,
            [lambda k, d=d: h1(d, k) for d in range(3)],
            selector=selector([None, "A12", None]),
        )
        assert rows == expected

    def test_in_list_selection(self, cube, kernel):
        array, facts = cube
        selections = [Selection(1, "h1", ("A10", "A12"))]
        rows = select(array, LEVEL1, selections, kernel)
        expected = reference_rows(
            facts,
            [lambda k, d=d: h1(d, k) for d in range(3)],
            selector=lambda row: h1(1, row[1]) in ("A10", "A12"),
        )
        assert rows == expected

    def test_two_predicates_on_one_dimension_intersect(self, cube, kernel):
        array, facts = cube
        selections = [
            Selection(0, "h1", ("A00",)),
            Selection(0, "h2", ("B00",)),
        ]
        rows = select(array, LEVEL1, selections, kernel)
        expected = reference_rows(
            facts,
            [lambda k, d=d: h1(d, k) for d in range(3)],
            selector=lambda row: h1(0, row[0]) == "A00" and h2(0, row[0]) == "B00",
        )
        assert rows == expected

    def test_no_selection_equals_plain_consolidation(self, cube, kernel):
        array, _ = cube
        assert select(array, LEVEL1, [], kernel) == consolidate(array, LEVEL1).rows

    def test_query3_shape_drop_plus_select(self, cube, kernel):
        # Query 3: selection on 3 dims would be all dims here; drop dim2
        array, facts = cube
        specs = [
            ConsolidationSpec.level("h1"),
            ConsolidationSpec.level("h1"),
            ConsolidationSpec.drop(),
        ]
        selections = [
            Selection(0, "h1", ("A01",)),
            Selection(1, "h1", ("A10",)),
        ]
        rows = select(array, specs, selections, kernel)
        expected = reference_rows(
            facts,
            [lambda k: h1(0, k), lambda k: h1(1, k), None],
            selector=selector(["A01", "A10", None]),
        )
        assert rows == expected

    def test_unknown_value_gives_empty(self, cube, kernel):
        array, _ = cube
        selections = [Selection(0, "h1", ("NOPE",))]
        rows = select(array, LEVEL1, selections, kernel)
        assert rows == []


class TestChunkOrderOptimizations:
    def test_untouched_chunks_not_read(self, cube, fm_big):
        array, _ = cube
        # select a single key per dimension: a single cell's chunk
        specs = [ConsolidationSpec.key()] * 3
        selections = [
            Selection(0, "h2", (h2(0, 0),)),
            Selection(0, "h1", (h1(0, 0),)),
        ]
        fm_big.pool.clear()
        counters = Counters()
        consolidate_with_selection(
            array,
            specs,
            [Selection(d, "h1", (h1(d, 0),)) for d in range(3)],
            counters=counters,
        )
        # only chunks whose grid slab intersects the selection are read
        assert counters.get("chunks_read") < array.geometry.n_chunks

    def test_naive_order_same_rows(self, cube):
        array, _ = cube
        selections = [Selection(0, "h1", ("A00",)), Selection(2, "h1", ("A21",))]
        fast = consolidate_with_selection(array, LEVEL1, selections)
        slow = consolidate_with_selection(
            array, LEVEL1, selections, order="naive"
        )
        assert fast.rows == slow.rows

    def test_naive_order_probes_more_chunk_reads(self, cube):
        array, _ = cube
        selections = [Selection(0, "h1", ("A00",))]
        counters_fast = Counters()
        consolidate_with_selection(
            array, LEVEL1, selections, counters=counters_fast
        )
        counters_slow = Counters()
        consolidate_with_selection(
            array, LEVEL1, selections, order="naive", counters=counters_slow
        )
        assert counters_slow.get("chunks_read") >= counters_fast.get(
            "chunks_read"
        )

    def test_cross_product_size_counter(self, cube):
        array, _ = cube
        counters = Counters()
        consolidate_with_selection(
            array,
            LEVEL1,
            [Selection(d, "h1", (h1(d, 0),)) for d in range(3)],
            counters=counters,
        )
        sizes = array.geometry.shape
        expected = 1
        for d, size in enumerate(sizes):
            expected *= sum(1 for k in range(size) if h1(d, k) == h1(d, 0))
        assert counters.get("cross_product_size") == expected
        # the chunk-ordered kernel probes at most every element; the
        # naive order probes each one
        assert counters.get("cells_probed") <= expected
        naive = Counters()
        consolidate_with_selection(
            array,
            LEVEL1,
            [Selection(d, "h1", (h1(d, 0),)) for d in range(3)],
            order="naive",
            counters=naive,
        )
        assert naive.get("cells_probed") == expected


class TestValidation:
    def test_empty_value_tuple_rejected(self):
        with pytest.raises(QueryError):
            Selection(0, "h1", ())

    def test_unknown_order(self, cube):
        array, _ = cube
        with pytest.raises(QueryError):
            consolidate_with_selection(array, LEVEL1, [], order="random")

    def test_unknown_attr_rejected(self, cube):
        array, _ = cube
        with pytest.raises(Exception):
            consolidate_with_selection(
                array, LEVEL1, [Selection(0, "nope", ("x",))]
            )


@settings(max_examples=10, deadline=None)
@given(
    st.integers(0, 10_000),
    st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 1)),
)
def test_selection_matches_reference_property(seed, picks):
    from repro.storage import BufferPool, FileManager, SimulatedDisk

    fm = FileManager(
        BufferPool(SimulatedDisk(page_size=1024), capacity_bytes=512 * 1024)
    )
    facts = make_facts(density=0.4, seed=seed)
    array = build_olap_array(fm, "c", make_dimensions(), facts, (3, 2, 4))
    selected = [f"A{d}{picks[d] % FANOUTS[d]}" for d in range(3)]
    selections = [Selection(d, "h1", (selected[d],)) for d in range(3)]
    out = consolidate_with_selection(array, LEVEL1, selections)
    expected = reference_rows(
        facts,
        [lambda k, d=d: h1(d, k) for d in range(3)],
        selector=selector(selected),
    )
    assert out.rows == expected
