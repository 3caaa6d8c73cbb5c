"""Tests for the one-pass CUBE operator."""

import pytest

from repro.core import ConsolidationSpec, compute_cube, consolidate
from repro.errors import QueryError
from repro.util.stats import Counters

from .conftest import h1, reference_rows

LEVEL1 = [ConsolidationSpec.level("h1")] * 3
ALL_SUBSETS = 8  # 2^3


class TestComputeCube:
    def test_every_subset_present(self, cube):
        array, _ = cube
        result = compute_cube(array, LEVEL1)
        assert len(result) == ALL_SUBSETS
        assert () in result
        assert ("dim0", "dim1", "dim2") in result

    def test_grand_total(self, cube):
        array, facts = cube
        result = compute_cube(array, LEVEL1)
        assert result[()] == [(sum(f[3] for f in facts),)]

    def test_each_subset_matches_consolidate(self, cube):
        array, _ = cube
        result = compute_cube(array, LEVEL1)
        for subset, rows in result.items():
            specs = [
                ConsolidationSpec.level("h1")
                if array.dim_names[d] in subset
                else ConsolidationSpec.drop()
                for d in range(3)
            ]
            direct = consolidate(array, specs)
            assert rows == direct.rows, subset

    def test_single_dimension_subset(self, cube):
        array, facts = cube
        result = compute_cube(array, LEVEL1)
        expected = reference_rows(facts, [lambda k: h1(0, k), None, None])
        assert result[("dim0",)] == expected

    def test_requested_subsets_only(self, cube):
        array, _ = cube
        result = compute_cube(
            array, LEVEL1, subsets=[("dim0",), ("dim0", "dim2"), ()]
        )
        assert set(result) == {("dim0",), ("dim0", "dim2"), ()}

    def test_unknown_subset_rejected(self, cube):
        array, _ = cube
        with pytest.raises(QueryError):
            compute_cube(array, LEVEL1, subsets=[("dimX",)])

    def test_mixed_levels(self, cube):
        array, facts = cube
        specs = [
            ConsolidationSpec.level("h1"),
            ConsolidationSpec.key(),
            ConsolidationSpec.level("h2"),
        ]
        result = compute_cube(array, specs, subsets=[("dim1",)])
        direct = consolidate(
            array,
            [
                ConsolidationSpec.drop(),
                ConsolidationSpec.key(),
                ConsolidationSpec.drop(),
            ],
        )
        assert result[("dim1",)] == direct.rows

    def test_count_aggregate(self, cube):
        array, facts = cube
        result = compute_cube(array, LEVEL1, aggregate="count")
        assert result[()] == [(len(facts),)]

    def test_drop_spec_rejected(self, cube):
        array, _ = cube
        with pytest.raises(QueryError):
            compute_cube(array, [ConsolidationSpec.drop()] * 3)

    def test_spec_arity(self, cube):
        array, _ = cube
        with pytest.raises(QueryError):
            compute_cube(array, LEVEL1[:2])

    def test_one_pass_scan_counter(self, cube):
        array, facts = cube
        counters = Counters()
        compute_cube(array, LEVEL1, counters=counters)
        # the whole cube costs ONE scan of the valid cells
        assert counters.get("cells_scanned") == len(facts)
        assert counters.get("group_bys_computed") == ALL_SUBSETS

    def test_cube_reads_chunks_once(self, cube, fm_big):
        array, _ = cube
        fm_big.pool.clear()
        counters = Counters()
        compute_cube(array, LEVEL1, counters=counters)
        nonempty = sum(1 for _, _, c in map(
            lambda e: e, [array.directory.entry(i) for i in range(array.geometry.n_chunks)]
        ) if c)
        assert counters.get("chunks_read") == nonempty
