"""Tests for the OLAP array bulk loader."""

import pytest

from repro.core import OLAPArray
from repro.core.builder import DimensionData, build_olap_array
from repro.core.meta import NO_CHUNK
from repro.errors import ArrayError, DimensionError

from .conftest import SIZES, make_dimensions, make_facts


class TestBuild:
    def test_shape_follows_dimension_sizes(self, cube):
        array, _ = cube
        assert array.geometry.shape == SIZES

    def test_all_facts_stored(self, cube):
        array, facts = cube
        assert array.n_valid == len(facts)

    def test_chunks_sorted_by_offset(self, cube):
        array, _ = cube
        for chunk in array.walk(range(array.geometry.n_chunks)):
            assert (chunk.offsets[1:] > chunk.offsets[:-1]).all()

    def test_chunk_objects_in_chunk_number_order(self, cube):
        array, _ = cube
        previous = -1
        for chunk_no in range(array.geometry.n_chunks):
            oid, _, count = array.directory.entry(chunk_no)
            if oid != NO_CHUNK:
                first_page = array.chunks.first_page(oid)
                assert first_page > previous
                previous = first_page

    def test_empty_chunks_have_no_object(self, fm_big):
        dims = make_dimensions()
        facts = [(0, 0, 0, 5)]  # a single cell: all other chunks empty
        array = build_olap_array(fm_big, "one", dims, facts, (3, 2, 4))
        entries = [
            array.directory.entry(c) for c in range(array.geometry.n_chunks)
        ]
        assert sum(1 for e in entries if e[0] != NO_CHUNK) == 1

    def test_no_facts_at_all(self, fm_big):
        array = build_olap_array(
            fm_big, "empty", make_dimensions(), [], (3, 2, 4)
        )
        assert array.n_valid == 0
        assert list(array.walk(range(array.geometry.n_chunks))) == []

    def test_duplicate_cell_rejected(self, fm_big):
        facts = [(0, 0, 0, 1), (0, 0, 0, 2)]
        with pytest.raises(ArrayError):
            build_olap_array(fm_big, "dup", make_dimensions(), facts, (3, 2, 4))

    def test_unknown_dimension_key_rejected(self, fm_big):
        facts = [(99, 0, 0, 1)]
        with pytest.raises(DimensionError):
            build_olap_array(fm_big, "bad", make_dimensions(), facts, (3, 2, 4))

    def test_measureless_tuples_rejected(self, fm_big):
        with pytest.raises(ArrayError):
            build_olap_array(
                fm_big, "bad", make_dimensions(), [(0, 0, 0)], (3, 2, 4)
            )

    def test_no_dimensions_rejected(self, fm_big):
        with pytest.raises(DimensionError):
            build_olap_array(fm_big, "bad", [], [], ())

    def test_attribute_arity_validated(self):
        with pytest.raises(DimensionError):
            DimensionData("d", [1, 2], {"h1": ["only-one"]})

    def test_measure_names(self, fm_big):
        facts = [(0, 0, 0, 5, 2.0)]
        # mixed measure count: dtype stays int64 unless asked
        array = build_olap_array(
            fm_big,
            "two-measures",
            make_dimensions(),
            facts,
            (3, 2, 4),
            measure_names=["volume", "weight"],
        )
        assert array.n_measures == 2
        assert array.measure_names == ["volume", "weight"]

    def test_measure_name_arity_rejected(self, fm_big):
        with pytest.raises(ArrayError):
            build_olap_array(
                fm_big,
                "bad",
                make_dimensions(),
                [(0, 0, 0, 1)],
                (3, 2, 4),
                measure_names=["a", "b"],
            )

    def test_reopen_by_name(self, cube, fm_big):
        array, facts = cube
        fm_big.pool.clear()
        reopened = OLAPArray.open(fm_big, "cube")
        assert reopened.geometry == array.geometry
        assert reopened.n_valid == len(facts)
        assert reopened.dim_names == ["dim0", "dim1", "dim2"]

    def test_codec_choice_persisted(self, fm_big):
        array = build_olap_array(
            fm_big,
            "dense-cube",
            make_dimensions(),
            make_facts(density=0.9),
            (3, 2, 4),
            codec="adaptive",
        )
        reopened = OLAPArray.open(fm_big, "dense-cube")
        assert reopened.codec_name == "adaptive"
        assert reopened.n_valid == array.n_valid

    def test_string_dimension_keys(self, fm_big):
        dims = [
            DimensionData("product", ["apple", "pear"], {"h1": ["f", "f"]}),
            DimensionData("store", ["s1", "s2"], {"h1": ["c1", "c2"]}),
        ]
        facts = [("apple", "s2", 10), ("pear", "s1", 20)]
        array = build_olap_array(fm_big, "named", dims, facts, (2, 2))
        assert array.get_cell(("apple", "s2"))[0] == 10
        assert array.get_cell(("pear", "s1"))[0] == 20
        assert array.get_cell(("apple", "s1")) is None
