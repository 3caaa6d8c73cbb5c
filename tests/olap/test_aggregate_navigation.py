"""Tests for aggregate navigation (answering queries from views)."""

import pytest

from repro.core import IndexToIndex
from repro.errors import DimensionError, PlanError, QueryError
from repro.olap import ConsolidationQuery, SelectionPredicate

from .conftest import CONFIG, reference


class TestFactor:
    def test_city_state_factoring(self):
        # base: 4 keys; fine = city level, coarse = state level
        fine = IndexToIndex.build(["mad", "mil", "chi", "mad"])
        coarse = IndexToIndex.build(["WI", "WI", "IL", "WI"])
        m = IndexToIndex.factor(fine, coarse)
        assert m.mapping.tolist() == [0, 0, 1]  # mad->WI, mil->WI, chi->IL
        assert m.target_keys == ["WI", "IL"]

    def test_factor_identity(self):
        fine = IndexToIndex.build(["a", "b", "a"])
        m = IndexToIndex.factor(fine, fine)
        assert m.mapping.tolist() == [0, 1]

    def test_non_functional_dependency_rejected(self):
        fine = IndexToIndex.build(["g", "g", "h"])
        coarse = IndexToIndex.build(["x", "y", "x"])  # g maps to both x and y
        with pytest.raises(DimensionError):
            IndexToIndex.factor(fine, coarse)

    def test_size_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            IndexToIndex.factor(
                IndexToIndex.build(["a"]), IndexToIndex.build(["a", "b"])
            )


class TestQueryFromViews:
    @pytest.fixture()
    def engine_with_view(self, loaded):
        engine = loaded[0]
        view_query = ConsolidationQuery.build(
            "cube", group_by={"dim0": "h01", "dim1": "h11", "dim2": "h21"}
        )
        if "nav_view" not in engine.view_names():
            engine.materialize(view_query, "nav_view")
        return engine

    def test_same_grain_answered_from_view(self, engine_with_view, fact_rows):
        engine = engine_with_view
        query = ConsolidationQuery.build(
            "cube", group_by={"dim0": "h01", "dim1": "h11", "dim2": "h21"}
        )
        result = engine.query_from_views(query)
        assert result.backend == "view:nav_view"
        assert result.rows == engine.query(query, backend="array").rows

    def test_coarser_level_rolled_up(self, engine_with_view, fact_rows):
        # h02 is functionally determined by h01: the view can answer it
        engine = engine_with_view
        query = ConsolidationQuery.build(
            "cube", group_by={"dim0": "h02", "dim1": "h11"}
        )
        result = engine.query_from_views(query)
        assert result.rows == engine.query(query, backend="starjoin").rows

    def test_dropping_view_dimensions(self, engine_with_view):
        engine = engine_with_view
        query = ConsolidationQuery.build("cube", group_by={"dim1": "h11"})
        result = engine.query_from_views(query)
        assert result.rows == engine.query(query, backend="array").rows

    def test_view_query_touches_fewer_cells(self, engine_with_view, fact_rows):
        engine = engine_with_view
        query = ConsolidationQuery.build("cube", group_by={"dim0": "h01"})
        via_view = engine.query_from_views(query)
        # the view scan folds at most |view cells| << |fact| cells
        assert via_view.stats["cells_scanned"] < len(fact_rows)

    def test_finer_query_rejected(self, engine_with_view):
        # keys are finer than h01: the view cannot answer
        engine = engine_with_view
        query = ConsolidationQuery.build("cube", group_by={"dim0": "d0"})
        with pytest.raises(PlanError):
            engine.query_from_views(query)

    def test_selections_rejected(self, engine_with_view):
        engine = engine_with_view
        query = ConsolidationQuery.build(
            "cube",
            group_by={"dim0": "h01"},
            selections=[SelectionPredicate("dim1", "h11", values=("AA0",))],
        )
        with pytest.raises(PlanError):
            engine.query_from_views(query)

    def test_mismatched_aggregate_rejected(self, engine_with_view):
        engine = engine_with_view
        query = ConsolidationQuery.build(
            "cube", group_by={"dim0": "h01"}, aggregate="avg"
        )
        with pytest.raises(PlanError):
            engine.query_from_views(query)

    def test_key_grain_view_answers_any_level(self, loaded):
        engine = loaded[0]
        key_view = ConsolidationQuery.build(
            "cube", group_by={"dim0": "d0", "dim1": "d1"}
        )
        if "key_view" not in engine.view_names():
            engine.materialize(key_view, "key_view")
        query = ConsolidationQuery.build(
            "cube", group_by={"dim0": "h02", "dim1": "h11"}
        )
        result = engine.query_from_views(query)
        assert result.rows == engine.query(query, backend="array").rows

    def test_min_view_navigates(self, loaded):
        engine = loaded[0]
        min_view = ConsolidationQuery.build(
            "cube", group_by={"dim0": "h01", "dim1": "h11"}, aggregate="min"
        )
        if "min_view" not in engine.view_names():
            engine.materialize(min_view, "min_view")
        query = ConsolidationQuery.build(
            "cube", group_by={"dim1": "h11"}, aggregate="min"
        )
        result = engine.query_from_views(query)
        assert result.backend == "view:min_view"
        assert result.rows == engine.query(query, backend="array").rows

    def test_count_view_rolls_up_with_sum(self, loaded):
        engine = loaded[0]
        count_view = ConsolidationQuery.build(
            "cube", group_by={"dim0": "h01", "dim1": "h11"}, aggregate="count"
        )
        if "count_view" not in engine.view_names():
            engine.materialize(count_view, "count_view")
        query = ConsolidationQuery.build(
            "cube", group_by={"dim0": "h01"}, aggregate="count"
        )
        result = engine.query_from_views(query)
        assert result.backend == "view:count_view"
        assert result.rows == engine.query(query, backend="starjoin").rows


class TestViewsBehindAWrite:
    """No write maintains an engine view, so a view built before one
    must not go on answering (it used to: a wrong number, silently)."""

    @pytest.fixture()
    def engine(self):
        # an engine of its own: these tests write
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
        )
        self.first_keys = tuple(generate_fact_rows(CONFIG)[0][: CONFIG.ndim])
        return engine

    QUERY = ConsolidationQuery.build("cube", group_by={"dim0": "h01"})

    def test_a_stale_view_is_skipped_and_named(self, engine):
        engine.materialize(self.QUERY, "by_h01")
        assert engine.query_from_views(self.QUERY).backend == "view:by_h01"
        engine.write_cell("cube", self.first_keys, (999_999,))
        with pytest.raises(PlanError, match="stale.*by_h01"):
            engine.query_from_views(self.QUERY)

    def test_a_view_built_after_the_write_answers(self, engine):
        engine.materialize(self.QUERY, "v1_before")  # sorts first
        engine.write_cell("cube", self.first_keys, (999_999,))
        engine.materialize(self.QUERY, "v2_after")
        result = engine.query_from_views(self.QUERY)
        assert result.backend == "view:v2_after"
        assert result.rows == engine.query(self.QUERY, backend="array").rows
        assert any(row[-1] >= 999_999 for row in result.rows)
