"""A rejected load leaves nothing behind and raises a typed error.

Every check on the fact rows — arity, unknown keys, duplicate cells,
declared ranges and widths — runs on columns before the first
``create_*`` call, so the corrected retry under the same name succeeds.
Also here: keys are matched in their own kind and measures stay exact
through the column path.
"""

import numpy as np
import pytest

from repro.core.builder import DimensionData, build_olap_array
from repro.data import (
    SyntheticCubeConfig,
    cube_schema_for,
    generate_dimension_rows,
    generate_fact_rows,
)
from repro.errors import ArrayError, DimensionError, ReproError, SchemaError
from repro.olap import OlapEngine
from repro.olap.model import CubeSchema, DimensionDef, MeasureDef
from repro.relational import FactFile, Schema
from repro.util.records import fact_columns

CONFIG = SyntheticCubeConfig(
    name="t", dim_sizes=(4, 3), n_valid=6, chunk_shape=(2, 2), fanout1=2, fanout2=2
)


def dims():
    return [
        DimensionData("a", [0, 1, 2], {"h": ["x", "y", "x"]}),
        DimensionData("b", [0, 1], {"h": ["p", "q"]}),
    ]


BAD_ARRAY_FACTS = {
    "unknown key": ([(9, 0, 1)], DimensionError),
    "duplicate cell": ([(0, 0, 1), (1, 1, 2), (0, 0, 3)], ArrayError),
    "short row": ([(0, 0, 1), (1, 1)], ReproError),
    "long row": ([(0, 0, 1), (1, 1, 2, 3)], ReproError),
    "no measure": ([(0, 0)], ArrayError),
    "key of another kind": ([(0, 0, 1), ("1", 1, 2)], ReproError),
    "text measure": ([(0, 0, "many")], ReproError),
}


class TestBuilderRejects:
    @pytest.mark.parametrize("case", BAD_ARRAY_FACTS)
    def test_nothing_created_and_the_retry_succeeds(self, fm, case):
        facts, error = BAD_ARRAY_FACTS[case]
        before = fm.names()
        with pytest.raises(error):
            build_olap_array(fm, "x", dims(), facts, (2, 2))
        assert fm.names() == before
        array = build_olap_array(fm, "x", dims(), [(0, 0, 1), (1, 1, 2)], (2, 2))
        assert array.get_cell((1, 1))[0] == 2

    def test_the_unknown_key_is_named(self, fm):
        with pytest.raises(DimensionError, match="unknown dimension key 9"):
            build_olap_array(fm, "x", dims(), [(0, 0, 1), (9, 0, 1)], (2, 2))
        with pytest.raises(DimensionError, match="unknown dimension key '1'"):
            build_olap_array(fm, "x", dims(), [("1", 0, 1)], (2, 2))


def engine_state(engine):
    return engine.db.table_names(), engine.db.index_names(), engine.db.fm.names()


def load(engine, fact_rows, backends=("array", "relational"), dimension_rows=None):
    return engine.load_cube(
        cube_schema_for(CONFIG),
        dimension_rows or generate_dimension_rows(CONFIG),
        fact_rows,
        chunk_shape=CONFIG.chunk_shape,
        backends=backends,
    )


GOOD = [tuple(row) for row in generate_fact_rows(CONFIG)]

BAD_CUBE_FACTS = {
    "unknown key": (GOOD + [(99, 0, 5)], DimensionError),
    "duplicate cell": (GOOD + [GOOD[0]], ArrayError),
    "short row": (GOOD + [(0, 0)], ReproError),
    "long row": (GOOD + [(0, 0, 1, 2)], ReproError),
    "key of another kind": (GOOD + [("0", 0, 5)], ReproError),
    "measure past int64": (GOOD[:-1] + [GOOD[-1][:2] + (2**63,)], ReproError),
}


class TestEngineRejects:
    @pytest.mark.parametrize("case", BAD_CUBE_FACTS)
    def test_nothing_created_and_the_retry_succeeds(self, case):
        fact_rows, error = BAD_CUBE_FACTS[case]
        engine = OlapEngine(page_size=1024, pool_bytes=256 * 1024)
        before = engine_state(engine)
        with pytest.raises(error):
            load(engine, fact_rows)
        assert engine_state(engine) == before
        state = load(engine, GOOD)
        assert len(state.fact) == len(GOOD) and state.array.n_valid == len(GOOD)

    @pytest.mark.parametrize(
        "backends", [("array", "relational"), ("array",), ("relational",)]
    )
    def test_duplicate_dimension_keys_create_nothing(self, backends):
        # parent: caught only inside the array's store, after the tables
        # existed; the relational design alone took the second row's label
        rows = generate_dimension_rows(CONFIG)
        rows["dim0"] = rows["dim0"] + [rows["dim0"][0][:1] + rows["dim0"][1][1:]]
        engine = OlapEngine(page_size=1024, pool_bytes=256 * 1024)
        before = engine_state(engine)
        with pytest.raises(DimensionError, match="duplicate keys"):
            load(engine, GOOD, backends, rows)
        assert engine_state(engine) == before
        assert load(engine, GOOD, backends) is engine.cube(CONFIG.name)

    def test_unknown_key_without_the_array_design(self):
        # parent: a bare KeyError out of the bitmap's value generator
        engine = OlapEngine(page_size=1024, pool_bytes=256 * 1024)
        before = engine_state(engine)
        with pytest.raises(DimensionError, match="99"):
            load(engine, GOOD + [(99, 0, 5)], backends=("relational",))
        assert engine_state(engine) == before
        load(engine, GOOD, backends=("relational",))

    def test_key_past_its_declared_int32(self):
        # parent: struct.error, after the dimension tables were created
        schema = CubeSchema(
            name="wide",
            dimensions=(DimensionDef("d", key="k", key_type="int32", levels=()),),
            measures=(MeasureDef("m", "int64"),),
        )
        dimension_rows = {"d": [(1,), (2**31,)]}
        engine = OlapEngine(page_size=1024, pool_bytes=256 * 1024)
        before = engine_state(engine)
        with pytest.raises(SchemaError):
            engine.load_cube(
                schema, dimension_rows, [(1, 5), (2**31, 6)], backends=("relational",)
            )
        assert engine_state(engine) == before

    def test_append_facts_checks_before_it_writes(self):
        engine = OlapEngine(page_size=1024, pool_bytes=256 * 1024)
        state = load(engine, GOOD[:-2])
        with pytest.raises(ReproError):
            engine.append_facts("t", [GOOD[-1], GOOD[-2][:2]])
        with pytest.raises(SchemaError):
            engine.append_facts("t", [GOOD[-1], (2**31, 0, 1)])
        assert len(state.fact) == len(GOOD) - 2
        engine.append_facts("t", GOOD[-2:])
        assert len(state.fact) == len(GOOD)
        assert state.array.get_cell(GOOD[-1][:2])[0] == GOOD[-1][2]


class TestFactFileRejects:
    SCHEMA = Schema([("k", "int32"), ("name", "str:4"), ("m", "int64")])

    @pytest.mark.parametrize(
        "row",
        [
            (2**31, "ab", 1),
            (-(2**31) - 1, "ab", 1),
            (1, "abcde", 1),
            (1, "ééé", 1),  # 6 bytes of UTF-8
            (1, "ab", 2**63),
            (1.5, "ab", 1),
            (1, 7, 1),
            ("1", "ab", 1),
            (1, "ab"),
        ],
    )
    def test_a_bad_row_rejects_the_whole_batch(self, fm, row):
        fact = FactFile.create(fm, "f", self.SCHEMA)
        fact.append_many([(1, "ab", 2)])
        with pytest.raises(SchemaError):
            fact.append_many([(2, "cd", 3), row])
        with pytest.raises(SchemaError):
            fact.append(row)
        assert list(fact.scan()) == [(1, "ab", 2)]

    def test_extremes_fit(self, fm):
        fact = FactFile.create(fm, "f", self.SCHEMA)
        rows = [(2**31 - 1, "abcd", 2**63 - 1), (-(2**31), "", -(2**63)), (0, "éé", 0)]
        fact.append_many(rows)
        assert list(fact.scan()) == rows


class TestExactTyping:
    def test_an_int64_measure_past_2_53_is_stored_exactly(self, fm):
        big = 2**53 + 1
        array = build_olap_array(
            fm, "x", dims(), [(0, 0, big, 0.5), (1, 1, -big, 2)], (2, 2)
        )
        assert int(array.get_cell((0, 0))[0]) == big
        assert int(array.get_cell((1, 1))[0]) == -big

    def test_float_measures_beside_int_keys(self, fm):
        array = build_olap_array(
            fm, "x", dims(), [(0, 0, 0.25), (2, 1, 7)], (2, 2), dtype="float64"
        )
        assert array.get_cell((0, 0))[0] == 0.25 and array.get_cell((2, 1))[0] == 7.0

    def test_string_keys_in_shuffled_order(self, fm):
        dimensions = [
            DimensionData("level", ["BB1", "AA3", "AA10"]),
            DimensionData("n", [5, -2]),
        ]
        facts = [("AA10", -2, 1), ("BB1", 5, 2), ("AA3", -2, 3)]
        array = build_olap_array(fm, "x", dimensions, facts, (2, 1))
        assert [int(array.get_cell(f[:2])[0]) for f in facts] == [1, 2, 3]
        with pytest.raises(DimensionError, match="'AA1'"):
            build_olap_array(fm, "y", dimensions, [("AA1", 5, 1)], (2, 1))
        with pytest.raises(DimensionError, match="3"):
            build_olap_array(fm, "y", dimensions, [(3, 5, 1)], (2, 1))

    def test_each_column_is_typed_on_its_own(self):
        keys, names, measures = fact_columns([(1, "a", 2**53 + 1), (2, "bc", 0.5)])
        assert (keys.dtype, names.dtype.kind, measures.dtype) == (
            np.int64, "U", np.float64,
        )
        ints = fact_columns([(1, 2**53 + 1), (2, -(2**63))])[1]
        assert ints.dtype == np.int64 and ints.tolist() == [2**53 + 1, -(2**63)]
        for mixed in ([(1,), ("1",)], [(None,), (1,)], [(2**63,)], [(b"a",)]):
            with pytest.raises(SchemaError):
                fact_columns(mixed)

    def test_generated_rows_read_as_tuples_of_python_ints(self):
        rows = generate_fact_rows(CONFIG)
        assert isinstance(rows[0], tuple) and rows[0] == GOOD[0]
        assert rows[1:3] == GOOD[1:3] and rows[-1] == GOOD[-1]
        assert {type(v) for row in rows for v in row} == {int}
        assert {type(v) for row in rows[::2] for v in row} == {int}
        assert rows == GOOD and rows == generate_fact_rows(CONFIG)
        assert rows != GOOD[:-1] and not rows == tuple(GOOD)
        assert next(iter(rows)) == GOOD[0] and GOOD[2] in rows
        table = np.asarray(rows)
        assert table.dtype == np.int64 and table.tolist() == [list(r) for r in GOOD]
        assert np.shares_memory(table, np.asarray(rows, dtype=np.int64))
        assert not table.flags.writeable
        with pytest.raises(IndexError):
            rows[len(rows)]
