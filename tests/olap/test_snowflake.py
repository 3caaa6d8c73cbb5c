"""Tests for the snowflake schema variant (§2.2)."""

import pytest

from repro.bench import run_cold
from repro.data import (
    SyntheticCubeConfig,
    cube_schema_for,
    generate_dimension_rows,
    generate_fact_rows,
)
from repro.errors import QueryError, SchemaError
from repro.olap import (
    ConsolidationQuery,
    CubeSchema,
    DimensionDef,
    OlapEngine,
    SelectionPredicate,
)
from repro.olap.snowflake import build_snowflake_dimension
from repro.relational import Database

CONFIG = SyntheticCubeConfig(
    name="snow",
    dim_sizes=(8, 6, 10),
    n_valid=180,
    chunk_shape=(4, 3, 5),
    fanout1=3,
    seed=11,
)


def build_engine(layout):
    engine = OlapEngine(page_size=1024, pool_bytes=1024 * 1024)
    engine.load_cube(
        cube_schema_for(CONFIG),
        generate_dimension_rows(CONFIG),
        generate_fact_rows(CONFIG),
        chunk_shape=CONFIG.chunk_shape,
        relational_layout=layout,
        fact_btrees=True,
    )
    return engine


@pytest.fixture(scope="module")
def star():
    return build_engine("star")


@pytest.fixture(scope="module")
def snowflake():
    return build_engine("snowflake")


class TestSnowflakeDimension:
    def test_view_reconstructs_denormalized_rows(self, snowflake):
        rows = generate_dimension_rows(CONFIG)["dim1"]
        view = snowflake.cube("snow").dim_tables["dim1"]
        assert list(view.scan()) == rows
        assert len(view) == len(rows)

    def test_schema_matches_star_dimension(self, star, snowflake):
        star_table = star.cube("snow").dim_tables["dim0"]
        snow_view = snowflake.cube("snow").dim_tables["dim0"]
        assert snow_view.schema.names == star_table.schema.names

    def test_level_tables_hold_distinct_values(self, snowflake):
        view = snowflake.cube("snow").dim_tables["dim0"]
        h1_table = dict(view.level_tables)["h01"]
        # fanout1=3 distinct hX1 values
        assert len(h1_table) == 3

    def test_non_functional_hierarchy_rejected(self):
        db = Database(page_size=1024, pool_bytes=256 * 1024)
        schema = CubeSchema(
            "bad",
            dimensions=(
                DimensionDef(
                    "d",
                    key="k",
                    levels=(("l1", "str:4"), ("l2", "str:4")),
                ),
            ),
        )
        rows = [(0, "a", "x"), (1, "a", "y")]  # l1='a' -> two l2 values
        with pytest.raises(SchemaError):
            build_snowflake_dimension(db, schema, "d", rows)


class TestQueryParity:
    QUERIES = [
        ConsolidationQuery.build(
            "snow", group_by={"dim0": "h01", "dim1": "h11", "dim2": "h21"}
        ),
        ConsolidationQuery.build(
            "snow", group_by={"dim0": "h02", "dim2": "h22"}
        ),
        ConsolidationQuery.build(
            "snow",
            group_by={"dim0": "h01"},
            selections=[SelectionPredicate("dim1", "h11", values=("AA1",))],
        ),
    ]

    @pytest.mark.parametrize("query_no", range(len(QUERIES)))
    @pytest.mark.parametrize("backend", ["starjoin", "bitmap", "leftdeep", "array"])
    def test_layouts_agree(self, star, snowflake, query_no, backend):
        query = self.QUERIES[query_no]
        if backend == "bitmap" and not query.selections:
            pytest.skip("bitmap path is for selections")
        assert (
            run_cold(snowflake, query, backend).rows
            == run_cold(star, query, backend).rows
        )

    def test_btree_backend_over_snowflake(self, star, snowflake):
        query = self.QUERIES[2]
        assert (
            run_cold(snowflake, query, "btree").rows
            == run_cold(star, query, "btree").rows
        )


class TestStorageAndValidation:
    def test_storage_reported_for_chain(self, snowflake):
        report = snowflake.storage_report("snow")
        assert report["dimension_tables"] > 0

    def test_snowflake_saves_space_on_wide_hierarchies(self):
        # long, highly redundant level strings: normalization pays off
        schema = CubeSchema(
            "wide",
            dimensions=(
                DimensionDef(
                    "d",
                    key="k",
                    levels=(("city", "str:40"), ("region", "str:40")),
                ),
            ),
        )
        rows = [
            (k, f"city-with-a-very-long-name-{k % 4}", f"region-long-{(k % 4) % 2}")
            for k in range(400)
        ]
        facts = [(k, 1) for k in range(400)]
        star = OlapEngine(page_size=1024, pool_bytes=512 * 1024)
        star.load_cube(schema, {"d": rows}, facts, relational_layout="star")
        snow = OlapEngine(page_size=1024, pool_bytes=512 * 1024)
        snow.load_cube(schema, {"d": rows}, facts, relational_layout="snowflake")
        assert (
            snow.storage_report("wide")["dimension_tables"]
            < star.storage_report("wide")["dimension_tables"] / 2
        )

    def test_unknown_layout_rejected(self):
        engine = OlapEngine(page_size=1024, pool_bytes=256 * 1024)
        with pytest.raises(QueryError):
            engine.load_cube(
                cube_schema_for(CONFIG),
                generate_dimension_rows(CONFIG),
                [],
                relational_layout="galaxy",
            )
