"""Multi-measure cubes (p > 1) through every backend."""

import random

import pytest

from repro.bench import run_cold
from repro.olap import (
    ConsolidationQuery,
    CubeSchema,
    DimensionDef,
    MeasureDef,
    OlapEngine,
    SelectionPredicate,
)


@pytest.fixture(scope="module")
def loaded():
    rng = random.Random(3)
    schema = CubeSchema(
        name="mm",
        dimensions=(
            DimensionDef("a", key="ka", levels=(("ha", "str:6"),)),
            DimensionDef("b", key="kb", levels=(("hb", "str:6"),)),
        ),
        measures=(MeasureDef("units"), MeasureDef("revenue")),
    )
    dim_rows = {
        "a": [(k, f"A{k % 2}") for k in range(6)],
        "b": [(k, f"B{k % 3}") for k in range(5)],
    }
    facts = [
        (i, j, rng.randint(1, 20), rng.randint(100, 900))
        for i in range(6)
        for j in range(5)
        if rng.random() < 0.7
    ]
    engine = OlapEngine(page_size=1024, pool_bytes=512 * 1024)
    engine.load_cube(schema, dim_rows, facts, fact_btrees=True)
    return engine, facts


def reference(facts, selected_a=None):
    groups = {}
    for i, j, units, revenue in facts:
        if selected_a is not None and f"A{i % 2}" != selected_a:
            continue
        key = (f"A{i % 2}", f"B{j % 3}")
        u, r = groups.get(key, (0, 0))
        groups[key] = (u + units, r + revenue)
    return sorted(k + v for k, v in groups.items())


QUERY = ConsolidationQuery.build("mm", group_by={"a": "ha", "b": "hb"})


class TestBothMeasures:
    @pytest.mark.parametrize("backend", ["array", "starjoin", "leftdeep"])
    def test_rows_carry_every_measure(self, loaded, backend):
        engine, facts = loaded
        rows = run_cold(engine, QUERY, backend).rows
        assert rows == reference(facts)

    def test_vectorized_array(self, loaded):
        engine, facts = loaded
        rows = engine.query(
            QUERY, backend="array", shards=2, executor="thread"
        ).rows
        assert rows == reference(facts)

    @pytest.mark.parametrize("backend", ["array", "bitmap", "btree", "starjoin"])
    def test_with_selection(self, loaded, backend):
        engine, facts = loaded
        query = ConsolidationQuery.build(
            "mm",
            group_by={"a": "ha", "b": "hb"},
            selections=[SelectionPredicate("a", "ha", values=("A1",))],
        )
        rows = run_cold(engine, query, backend).rows
        assert rows == reference(facts, selected_a="A1")


class TestMeasureSubset:
    @pytest.mark.parametrize("backend", ["array", "starjoin"])
    def test_single_measure_projected(self, loaded, backend):
        engine, facts = loaded
        query = ConsolidationQuery.build(
            "mm", group_by={"a": "ha", "b": "hb"}, measures=["revenue"]
        )
        rows = engine.query(query, backend=backend).rows
        expected = [(a, b, r) for a, b, _, r in reference(facts)]
        assert rows == expected

    def test_reordered_measures(self, loaded):
        engine, facts = loaded
        query = ConsolidationQuery.build(
            "mm",
            group_by={"a": "ha", "b": "hb"},
            measures=["revenue", "units"],
        )
        array = engine.query(query, backend="array").rows
        starjoin = engine.query(query, backend="starjoin").rows
        assert array == starjoin
        expected = [(a, b, r, u) for a, b, u, r in reference(facts)]
        assert array == expected

    def test_array_storage_holds_both(self, loaded):
        engine, facts = loaded
        array = engine.cube("mm").array
        assert array.n_measures == 2
        row = facts[0]
        cell = array.get_cell(row[:2])
        assert cell.tolist() == [row[2], row[3]]
