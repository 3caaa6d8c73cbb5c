"""The Backend protocol and the engine's backend table."""

import pytest

from repro.errors import PlanError
from repro.olap import (
    ConsolidationQuery,
    OlapEngine,
    SelectionPredicate,
    available_backends,
    backend_names,
    get_backend,
)

from .conftest import CONFIG

BUILTINS = ("array", "starjoin", "bitmap")


class TestRegistry:
    def test_builtins_are_registered(self):
        for name in BUILTINS:
            assert get_backend(name).name == name
        assert backend_names() == BUILTINS

    def test_unknown_backend_raises_plan_error(self):
        with pytest.raises(PlanError, match="unknown backend"):
            get_backend("nope")

    def test_auto_is_reserved(self):
        # the planner's name is resolved before the table, never in it
        assert "auto" not in backend_names()
        with pytest.raises(PlanError, match="unknown backend"):
            get_backend("auto")


class TestEngineIntegration:
    def test_availability_reflects_physical_design(self, engine):
        state = engine.cube("cube")
        assert available_backends(state) == set(BUILTINS)

    def test_unavailable_backend_rejected_by_engine(self, schema, fact_rows):
        from repro.data import generate_dimension_rows

        engine = OlapEngine(page_size=1024, pool_bytes=512 * 1024)
        engine.load_cube(
            schema,
            generate_dimension_rows(CONFIG),
            fact_rows,
            chunk_shape=CONFIG.chunk_shape,
            backends=("array",),
        )
        query = ConsolidationQuery.build(
            "cube",
            group_by={"dim0": "h01"},
            selections=[SelectionPredicate.in_list("dim1", "h11", "AA1")],
        )
        with pytest.raises(PlanError, match="not available"):
            engine.query(query, backend="bitmap")
