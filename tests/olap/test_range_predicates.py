"""Range (BETWEEN) predicates through every backend."""

import pytest

from repro.bench import run_cold
from repro.errors import QueryError
from repro.olap import ConsolidationQuery, SelectionPredicate, parse_query

from .conftest import CONFIG, reference


def key_range_reference(fact_rows, low, high):
    groups = {}
    for row in fact_rows:
        if not low <= row[1] <= high:
            continue
        key = (f"AA{row[0] % CONFIG.fanout1}",)
        groups[key] = groups.get(key, 0) + row[-1]
    return sorted(k + (v,) for k, v in groups.items())


class TestPredicate:
    def test_range_and_values_are_exclusive(self):
        with pytest.raises(QueryError):
            SelectionPredicate("d", "a", values=("x",), low=1)

    def test_needs_values_or_bounds(self):
        with pytest.raises(QueryError):
            SelectionPredicate("d", "a")

    def test_matches_semantics(self):
        between = SelectionPredicate("d", "a", low=2, high=5)
        assert between.matches(2) and between.matches(5)
        assert not between.matches(1) and not between.matches(6)
        open_low = SelectionPredicate("d", "a", high=3)
        assert open_low.matches(-100) and not open_low.matches(4)
        in_list = SelectionPredicate("d", "a", values=("x", "y"))
        assert in_list.matches("x") and not in_list.matches("z")


class TestKeyRanges:
    @pytest.mark.parametrize(
        "backend", ["array", "starjoin", "bitmap", "btree", "leftdeep"]
    )
    def test_key_between_all_backends(self, engine, fact_rows, backend):
        query = ConsolidationQuery.build(
            "cube",
            group_by={"dim0": "h01"},
            selections=[SelectionPredicate("dim1", "d1", low=1, high=3)],
        )
        if backend == "bitmap":
            pytest.skip("no bitmap index is built on key attributes")
        rows = run_cold(engine, query, backend).rows
        assert rows == key_range_reference(fact_rows, 1, 3)

    def test_open_bounds(self, engine, fact_rows):
        query = ConsolidationQuery.build(
            "cube",
            group_by={"dim0": "h01"},
            selections=[SelectionPredicate("dim1", "d1", high=2)],
        )
        rows = engine.query(query, backend="array").rows
        assert rows == key_range_reference(fact_rows, -(10**9), 2)


class TestLevelRanges:
    @pytest.mark.parametrize("backend", ["array", "bitmap", "starjoin", "btree"])
    def test_string_level_range(self, engine, fact_rows, backend):
        # hX1 values are AA0..AA2; the range AA1..AA2 behaves as an IN-list
        query = ConsolidationQuery.build(
            "cube",
            group_by={"dim0": "h01", "dim1": "h11", "dim2": "h21"},
            selections=[
                SelectionPredicate("dim1", "h11", low="AA1", high="AA2")
            ],
        )
        rows = run_cold(engine, query, backend).rows
        expected = reference(
            fact_rows,
            CONFIG,
            [(0, 1), (1, 1), (2, 1)],
            selected={1: {"AA1", "AA2"}},
        )
        assert rows == expected

    def test_empty_range(self, engine):
        query = ConsolidationQuery.build(
            "cube",
            group_by={"dim0": "h01"},
            selections=[SelectionPredicate("dim1", "h11", low="ZZ", high="ZZ9")],
        )
        for backend in ("array", "bitmap", "starjoin"):
            assert engine.query(query, backend=backend).rows == []


class TestAutoDispatchWithRanges:
    def test_relational_only_cube_routes_ranges_to_starjoin(self):
        """End-to-end regression for the planner fallback: with no array
        and a pure-range selection, auto must not hand the query to the
        bitmap backend."""
        from repro.data import (
            cube_schema_for,
            generate_dimension_rows,
            generate_fact_rows,
        )
        from repro.olap import OlapEngine

        engine = OlapEngine(page_size=1024, pool_bytes=1024 * 1024)
        engine.load_cube(
            cube_schema_for(CONFIG),
            generate_dimension_rows(CONFIG),
            generate_fact_rows(CONFIG),
            chunk_shape=CONFIG.chunk_shape,
            backends=("relational",),
        )
        query = ConsolidationQuery.build(
            "cube",
            group_by={"dim0": "h01"},
            selections=[SelectionPredicate("dim1", "d1", low=1, high=3)],
        )
        result = engine.query(query, backend="auto")
        assert result.backend == "starjoin"
        fact_rows = generate_fact_rows(CONFIG)
        assert result.rows == key_range_reference(fact_rows, 1, 3)

    def test_relational_only_cube_still_uses_bitmap_for_in_lists(self):
        from repro.data import (
            cube_schema_for,
            generate_dimension_rows,
            generate_fact_rows,
        )
        from repro.olap import OlapEngine

        engine = OlapEngine(page_size=1024, pool_bytes=1024 * 1024)
        engine.load_cube(
            cube_schema_for(CONFIG),
            generate_dimension_rows(CONFIG),
            generate_fact_rows(CONFIG),
            chunk_shape=CONFIG.chunk_shape,
            backends=("relational",),
        )
        query = ConsolidationQuery.build(
            "cube",
            group_by={"dim0": "h01"},
            selections=[SelectionPredicate("dim1", "h11", values=("AA1",))],
        )
        assert engine.query(query, backend="auto").backend == "bitmap"


class TestSQLBetween:
    def test_between_parses(self, schema):
        query = parse_query(
            "select sum(volume), dim0.h01 from fact, dim0, dim1 "
            "where fact.d0 = dim0.d0 and dim1.d1 between 1 and 3 "
            "group by h01",
            schema,
        )
        sel = query.selections[0]
        assert sel.is_range and (sel.low, sel.high) == (1, 3)

    def test_between_through_engine(self, engine, fact_rows):
        result = engine.sql(
            "cube",
            "select sum(volume), dim0.h01 from fact, dim0, dim1 "
            "where fact.d0 = dim0.d0 and dim1.d1 between 1 and 3 "
            "group by h01",
            backend="array",
        )
        assert result.rows == key_range_reference(fact_rows, 1, 3)

    def test_between_requires_and(self, schema):
        from repro.errors import SQLError

        with pytest.raises(SQLError):
            parse_query(
                "select sum(volume), dim0.h01 from fact, dim0 "
                "where dim0.d0 between 1 group by h01",
                schema,
            )
