"""The Backend protocol and the built-in registry."""

import pytest

from repro.errors import PlanError
from repro.olap import (
    Backend,
    ConsolidationQuery,
    SelectionPredicate,
    available_backends,
    backend_names,
    get_backend,
)
from repro.olap.backends import _register

BUILTINS = ("array", "starjoin", "bitmap", "btree", "mbtree", "leftdeep")


class TestRegistry:
    def test_builtins_are_registered(self):
        for name in BUILTINS:
            assert get_backend(name).name == name
        assert backend_names() == BUILTINS

    def test_unknown_backend_raises_plan_error(self):
        with pytest.raises(PlanError, match="unknown backend"):
            get_backend("nope")

    def test_auto_is_reserved(self):
        class AutoBackend(Backend):
            name = "auto"

            def execute(self, ctx, query):  # pragma: no cover
                raise AssertionError

        with pytest.raises(PlanError, match="reserved"):
            _register(AutoBackend())

    def test_empty_name_rejected(self):
        class Nameless(Backend):
            def execute(self, ctx, query):  # pragma: no cover
                raise AssertionError

        with pytest.raises(PlanError, match="non-empty"):
            _register(Nameless())


class TestEngineIntegration:
    def test_availability_reflects_physical_design(self, engine):
        state = engine.cube("cube")
        names = available_backends(state)
        assert {"array", "starjoin", "leftdeep"} <= names

    def test_unavailable_backend_rejected_by_engine(self, engine):
        # the shared cube is built without an mbtree
        query = ConsolidationQuery.build(
            "cube",
            group_by={"dim0": "h01"},
            selections=[SelectionPredicate.in_list("dim1", "h11", "AA1")],
        )
        with pytest.raises(PlanError):
            engine.query(query, backend="mbtree")
