"""Tests for the §4.1 array consolidation algorithm."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConsolidationSpec, OLAPArray, consolidate
from repro.core.builder import build_olap_array
from repro.core.consolidate import ResultAccumulator, scan_chunk_range
from repro.errors import QueryError
from repro.util.stats import Counters

from .conftest import (
    FANOUTS,
    SIZES,
    h1,
    h2,
    make_dimensions,
    make_facts,
    reference_rows,
)

LEVEL1 = [ConsolidationSpec.level("h1")] * 3


def run(array, specs, kernel, aggregate="sum", counters=None):
    """Rows of ``consolidate`` itself (``"vectorized"``) or of the same
    scan through the per-cell reference kernel (``"interpreted"``)."""
    if kernel == "vectorized":
        return consolidate(array, specs, aggregate, counters=counters).rows
    accumulator = ResultAccumulator(array, specs, aggregate, counters)
    scan_chunk_range(
        array,
        accumulator,
        range(array.geometry.n_chunks),
        "interpreted",
        counters=counters,
    )
    if counters is not None:
        counters.add("result_cells", accumulator.touched_cells())
    return accumulator.rows()


@pytest.mark.parametrize("kernel", ["interpreted", "vectorized"])
class TestBothModes:
    """The engine's kernel and the per-cell reference, each against the
    brute-force fold."""

    def test_group_by_h1(self, cube, kernel):
        array, facts = cube
        assert run(array, LEVEL1, kernel) == reference_rows(
            facts, [lambda k, d=d: h1(d, k) for d in range(3)]
        )

    def test_group_by_h2(self, cube, kernel):
        array, facts = cube
        specs = [ConsolidationSpec.level("h2")] * 3
        assert run(array, specs, kernel) == reference_rows(
            facts, [lambda k, d=d: h2(d, k) for d in range(3)]
        )

    def test_mixed_levels(self, cube, kernel):
        array, facts = cube
        specs = [
            ConsolidationSpec.level("h1"),
            ConsolidationSpec.level("h2"),
            ConsolidationSpec.key(),
        ]
        assert run(array, specs, kernel) == reference_rows(
            facts,
            [lambda k: h1(0, k), lambda k: h2(1, k), lambda k: k],
        )

    def test_drop_dimension(self, cube, kernel):
        array, facts = cube
        specs = [
            ConsolidationSpec.level("h1"),
            ConsolidationSpec.drop(),
            ConsolidationSpec.level("h1"),
        ]
        assert run(array, specs, kernel) == reference_rows(
            facts, [lambda k: h1(0, k), None, lambda k: h1(2, k)]
        )

    def test_total_preserved(self, cube, kernel):
        array, facts = cube
        rows = run(array, LEVEL1, kernel)
        assert sum(r[-1] for r in rows) == sum(f[3] for f in facts)

    def test_count_aggregate(self, cube, kernel):
        array, facts = cube
        rows = run(array, LEVEL1, kernel, aggregate="count")
        assert sum(r[-1] for r in rows) == len(facts)

    def test_min_max_aggregates(self, cube, kernel):
        array, facts = cube
        specs = [ConsolidationSpec.drop()] * 2 + [ConsolidationSpec.level("h1")]
        low = run(array, specs, kernel, aggregate="min")
        high = run(array, specs, kernel, aggregate="max")
        for (group, lo), (_, hi) in zip(low, high):
            matching = [f[3] for f in facts if h1(2, f[2]) == group]
            assert lo == min(matching)
            assert hi == max(matching)

    def test_counters(self, cube, kernel):
        array, facts = cube
        counters = Counters()
        rows = run(array, LEVEL1, kernel, counters=counters)
        assert counters.get("cells_scanned") == len(facts)
        assert counters.get("result_cells") == len(rows)
        assert counters.get("chunks_read") > 0


class TestModeEquivalence:
    """The kernel and the per-cell reference fold the same cells in the
    same order, so their rows are equal, not just close."""

    def test_modes_agree_on_random_cubes(self, fm_big):
        for seed in (1, 7, 13):
            facts = make_facts(density=0.3, seed=seed)
            array = build_olap_array(
                fm_big, f"c{seed}", make_dimensions(), facts, (3, 2, 4)
            )
            for aggregate in ("sum", "var", "stddev"):
                assert run(array, LEVEL1, "interpreted", aggregate) == run(
                    array, LEVEL1, "vectorized", aggregate
                ), aggregate

    def test_avg_agrees_between_modes(self, cube):
        array, _ = cube
        assert run(array, LEVEL1, "interpreted", "avg") == run(
            array, LEVEL1, "vectorized", "avg"
        )


class TestVectorizedExtraction:
    @pytest.mark.parametrize(
        "dtype, value_type", [("int64", int), ("float64", float)]
    )
    def test_row_cell_types(self, fm_big, dtype, value_type):
        array = build_olap_array(
            fm_big,
            f"typed.{dtype}",
            make_dimensions(),
            make_facts(),
            (3, 2, 4),
            dtype=dtype,
        )
        expected = {
            "sum": value_type,
            "min": value_type,
            "max": value_type,
            "count": int,
            "avg": float,
            "var": float,
            "stddev": float,
        }
        for aggregate, cell_type in expected.items():
            out = consolidate(array, LEVEL1, aggregate=aggregate)
            assert out.rows
            assert {type(row[-1]) for row in out.rows} == {cell_type}, aggregate

    def test_group_values_are_the_target_key_objects(self, cube):
        from repro.core.index_to_index import IndexToIndex

        array, _ = cube
        targets = [("odd",), ("even",)]
        by_parity = IndexToIndex(
            np.array([k % 2 for k in range(SIZES[0])], dtype=np.int32), targets
        )
        specs = [
            ConsolidationSpec.mapping(by_parity),
            ConsolidationSpec.drop(),
            ConsolidationSpec.key(),
        ]
        out = consolidate(array, specs)
        assert out.rows == sorted(out.rows)
        assert all(any(row[0] is t for t in targets) for row in out.rows)
        assert {type(row[1]) for row in out.rows} == {int}
        assert out.rows == run(array, specs, "interpreted")

    def test_rows_are_sorted_when_target_keys_do_not_ascend(self, cube):
        from repro.core.index_to_index import IndexToIndex

        array, facts = cube
        # numbered by first appearance: "AA2" < "AA10" does not hold
        labels = ["AA2", "AA10", "AA1"]
        unordered = IndexToIndex.build([labels[k % 3] for k in range(SIZES[0])])
        assert unordered.target_keys == labels and not unordered.keys_ascend
        ordered = IndexToIndex.identity(list(range(SIZES[2])))
        assert ordered.keys_ascend
        specs = [
            ConsolidationSpec.mapping(unordered),
            ConsolidationSpec.drop(),
            ConsolidationSpec.mapping(ordered),
        ]
        rows = consolidate(array, specs).rows
        assert rows == reference_rows(
            facts, [lambda k: labels[k % 3], None, lambda k: k]
        )
        assert rows == run(array, specs, "interpreted")

    def test_no_coordinates_are_reconstructed(self, cube, monkeypatch):
        from repro.core.chunking import ChunkGeometry
        from repro.core.consolidate import ResultAccumulator, scan_chunk_range

        def refuse(self, chunk_no, offsets):
            raise AssertionError("the vectorized scan rebuilt coordinates")

        monkeypatch.setattr(ChunkGeometry, "chunk_offset_to_coords", refuse)
        array, facts = cube
        accumulator = ResultAccumulator(array, LEVEL1)
        allowed = [[0, 4, 5], list(range(SIZES[1])), [1, 2, 6]]
        scanned = scan_chunk_range(
            array,
            accumulator,
            range(array.geometry.n_chunks),
            "vectorized",
            allowed=allowed,
        )
        assert scanned == sum(
            all(f[d] in allowed[d] for d in range(3)) for f in facts
        )


class TestValidation:
    def test_spec_arity(self, cube):
        array, _ = cube
        with pytest.raises(QueryError):
            consolidate(array, LEVEL1[:2])

    @pytest.mark.parametrize("kernel", ["gpu", "interp", "auto"])
    def test_unknown_kernel(self, cube, kernel):
        array, _ = cube
        with pytest.raises(QueryError, match="unknown kernel"):
            scan_chunk_range(
                array, ResultAccumulator(array, LEVEL1), range(1), kernel
            )

    def test_unknown_spec_kind(self, cube):
        array, _ = cube
        with pytest.raises(QueryError):
            consolidate(array, [ConsolidationSpec("weird")] * 3)

    def test_aggregate_arity(self, cube):
        array, _ = cube
        with pytest.raises(QueryError):
            consolidate(array, LEVEL1, aggregate=["sum", "sum"])

    def test_empty_array_gives_no_rows(self, fm_big):
        array = build_olap_array(
            fm_big, "empty", make_dimensions(), [], (3, 2, 4)
        )
        assert consolidate(array, LEVEL1).rows == []


class TestUnfedAccumulator:
    """The state is allocated by the first fold or merge; until then an
    accumulator answers as an empty one."""

    def test_merges_both_ways(self, cube):
        array, _ = cube
        fed = ResultAccumulator(array, LEVEL1, "var")
        scan_chunk_range(array, fed, range(array.geometry.n_chunks))
        expected = fed.rows()
        unfed = ResultAccumulator(array, LEVEL1, "var")
        assert unfed.rows() == [] and unfed.touched_cells() == 0
        fed.merge_from(unfed)
        assert fed.rows() == expected
        unfed.merge_from(fed)
        assert unfed.rows() == expected

    def test_an_empty_state_ships(self, cube):
        array, _ = cube
        payload = ResultAccumulator(array, LEVEL1, "min").export_state()
        shipped = ResultAccumulator(array, LEVEL1, "min").import_state(
            pickle.loads(pickle.dumps(payload))
        )
        assert shipped.rows() == [] and shipped.touched_cells() == 0


class TestMaterialize:
    def test_result_is_a_persisted_array(self, cube, fm_big):
        # the stored dtype follows the aggregate: var/stddev not truncated
        array, facts = cube
        for aggregate in ("sum", "count", "min", "max", "avg", "var", "stddev"):
            name = f"cube.h1.{aggregate}"
            out = consolidate(
                array, LEVEL1, aggregate=aggregate, materialize_as=name
            )
            assert out.result_array is not None
            reopened = OLAPArray.open(fm_big, name)
            assert reopened.geometry.shape == tuple(FANOUTS)
            assert reopened.n_valid == len(out.rows)
            for row in out.rows:
                assert reopened.get_cell(row[:3])[0] == row[3], aggregate

    def test_materialized_result_consolidates_again(self, cube, fm_big):
        # roll up the h1 result with a second consolidation (drop two dims)
        array, facts = cube
        out = consolidate(array, LEVEL1, materialize_as="cube.step1")
        second = consolidate(
            out.result_array,
            [
                ConsolidationSpec.key(),
                ConsolidationSpec.drop(),
                ConsolidationSpec.drop(),
            ],
        )
        expected = reference_rows(facts, [lambda k: h1(0, k), None, None])
        assert second.rows == expected

    def test_fully_collapsed_materialization_rejected(self, cube):
        array, _ = cube
        with pytest.raises(QueryError):
            consolidate(
                array,
                [ConsolidationSpec.drop()] * 3,
                materialize_as="nope",
            )


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 0.9))
def test_consolidation_matches_reference_property(seed, density):
    from repro.storage import BufferPool, FileManager, SimulatedDisk

    fm = FileManager(
        BufferPool(SimulatedDisk(page_size=1024), capacity_bytes=512 * 1024)
    )
    facts = make_facts(density=density, seed=seed)
    array = build_olap_array(fm, "c", make_dimensions(), facts, (3, 2, 4))
    out = consolidate(array, LEVEL1)
    assert out.rows == reference_rows(
        facts, [lambda k, d=d: h1(d, k) for d in range(3)]
    )
