"""Tests for the OLAP Array ADT functions (§3.5)."""

import numpy as np
import pytest

from repro.errors import ArrayError, DimensionError

from .conftest import SIZES, h1


class TestCellAccess:
    def test_get_valid_cell(self, cube):
        array, facts = cube
        for row in facts[:25]:
            assert array.get_cell(row[:3])[0] == row[3]

    def test_get_invalid_cell_is_none(self, cube):
        array, facts = cube
        valid = {row[:3] for row in facts}
        import itertools

        missing = next(
            c
            for c in itertools.product(*[range(s) for s in SIZES])
            if c not in valid
        )
        assert array.get_cell(missing) is None

    def test_get_wrong_arity(self, cube):
        array, _ = cube
        with pytest.raises(DimensionError):
            array.get_cell((0, 0))

    def test_get_unknown_key(self, cube):
        array, _ = cube
        with pytest.raises(DimensionError):
            array.get_cell((99, 0, 0))

    def test_write_overwrites_existing_cell(self, cube):
        array, facts = cube
        target = facts[0][:3]
        array.write_cell(target, [1234])
        assert array.get_cell(target)[0] == 1234
        assert array.n_valid == len(facts)

    def test_write_inserts_new_cell(self, cube):
        array, facts = cube
        valid = {row[:3] for row in facts}
        import itertools

        missing = next(
            c
            for c in itertools.product(*[range(s) for s in SIZES])
            if c not in valid
        )
        array.write_cell(missing, [777])
        assert array.get_cell(missing)[0] == 777
        assert array.n_valid == len(facts) + 1

    def test_write_wrong_measure_arity(self, cube):
        array, facts = cube
        with pytest.raises(ArrayError):
            array.write_cell(facts[0][:3], [1, 2])


class TestRegionSum:
    def test_whole_array(self, cube):
        array, facts = cube
        assert array.sum_region([None] * 3)[0] == sum(r[3] for r in facts)

    def test_single_cell_region(self, cube):
        array, facts = cube
        row = facts[0]
        box = [(row[d], row[d]) for d in range(3)]
        assert array.sum_region(box)[0] == row[3]

    def test_partial_box(self, cube):
        array, facts = cube
        box = [(0, 2), (1, 3), None]
        expected = sum(
            r[3] for r in facts if 0 <= r[0] <= 2 and 1 <= r[1] <= 3
        )
        assert array.sum_region(box)[0] == expected

    def test_untouched_chunks_not_read(self, cube, fm_big):
        array, _ = cube
        fm_big.pool.clear()
        before = array.counters.get("chunks_read")
        array.sum_region([(0, 0), (0, 0), (0, 0)])
        assert array.counters.get("chunks_read") - before <= 1

    def test_bad_ranges(self, cube):
        array, _ = cube
        with pytest.raises(DimensionError):
            array.sum_region([None, None])
        with pytest.raises(DimensionError):
            array.sum_region([(0, 99), None, None])
        with pytest.raises(DimensionError):
            array.sum_region([(3, 2), None, None])


class TestSlicing:
    def test_slice_matches_facts(self, cube):
        array, facts = cube
        got = array.slice_dim("dim1", 2)
        expected = sorted(
            (row[:3], row[3]) for row in facts if row[1] == 2
        )
        assert [(keys, int(v[0])) for keys, v in got] == [
            (keys, v) for keys, v in expected
        ]

    def test_slice_by_dim_number(self, cube):
        array, facts = cube
        assert array.slice_dim(0, 1) == array.slice_dim("dim0", 1)

    def test_slice_unknown_key(self, cube):
        array, _ = cube
        with pytest.raises(DimensionError):
            array.slice_dim("dim0", 999)

    def test_slice_unknown_dim(self, cube):
        array, _ = cube
        with pytest.raises(DimensionError):
            array.slice_dim("dimX", 0)


class TestIndices:
    def test_attribute_index_lists(self, cube):
        array, _ = cube
        tree = array.attribute_index("dim0", "h1")
        expected = [k for k in range(SIZES[0]) if h1(0, k) == "A00"]
        assert tree.search("A00") == expected

    def test_attribute_index_unknown_attr(self, cube):
        array, _ = cube
        with pytest.raises(DimensionError):
            array.attribute_index("dim0", "nope")

    def test_index_to_index_loads(self, cube):
        array, _ = cube
        i2i = array.index_to_index("dim1", "h1")
        assert len(i2i) == SIZES[1]
        assert set(i2i.target_keys) == {h1(1, k) for k in range(SIZES[1])}

    def test_index_to_index_unknown_attr(self, cube):
        array, _ = cube
        with pytest.raises(DimensionError):
            array.index_to_index("dim1", "hX")

    def test_hierarchy_attrs(self, cube):
        array, _ = cube
        assert array.hierarchy_attrs("dim2") == ["h1", "h2"]


class TestStats:
    def test_density(self, cube):
        array, facts = cube
        logical = np.prod(SIZES)
        assert array.density == pytest.approx(len(facts) / logical)

    def test_storage_accounting(self, cube):
        array, _ = cube
        with_indices = array.storage_bytes(include_indices=True)
        without = array.storage_bytes(include_indices=False)
        assert 0 < without < with_indices

    def test_repr(self, cube):
        array, _ = cube
        assert "cube" in repr(array)
