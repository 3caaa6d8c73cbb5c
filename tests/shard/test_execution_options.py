"""The unified ExecutionOptions surface (loose keywords are gone)."""

import warnings

import pytest

from repro.errors import QueryError
from repro.olap import ConsolidationQuery, ExecutionOptions, resolve_mode


def query():
    return ConsolidationQuery.build("cube", group_by={"dim0": "h01"})


class TestValidation:
    def test_defaults(self):
        opts = ExecutionOptions()
        assert opts.backend == "auto"
        assert opts.mode == "auto"
        assert opts.executor == "local"
        assert opts.shards == 1
        assert opts.allow_partial is False

    @pytest.mark.parametrize(
        "bad",
        [
            {"mode": "fast"},
            {"executor": "fiber"},
            {"shards": 0},
            {"order": "spiral"},
        ],
    )
    def test_bad_values_rejected(self, bad):
        with pytest.raises(QueryError):
            ExecutionOptions(**bad)

    def test_merged_with_revalidates(self):
        opts = ExecutionOptions(shards=2)
        assert opts.merged_with(executor="process").shards == 2
        with pytest.raises(QueryError):
            opts.merged_with(shards=-1)


class TestResolveMode:
    def test_vectorizable_aggregates_go_vectorized(self):
        for agg in ("sum", "count", "min", "max", "avg"):
            assert resolve_mode("auto", agg, "array") == "vectorized"

    def test_non_vectorizable_falls_back_interpreted(self):
        assert resolve_mode("auto", "stddev", "array") == "interpreted"
        assert resolve_mode("auto", "var", "auto") == "interpreted"

    def test_non_array_backend_is_interpreted(self):
        assert resolve_mode("auto", "sum", "starjoin") == "interpreted"

    def test_explicit_mode_passes_through(self):
        assert resolve_mode("interpreted", "sum", "array") == "interpreted"
        assert resolve_mode("vectorized", "stddev", "array") == "vectorized"


class TestEngineSurface:
    def test_run_accepts_options(self, engine):
        opts = ExecutionOptions(backend="array", shards=2, executor="thread")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the new surface must not warn
            result = engine.run(query(), opts)
        assert result.rows == engine.query(query(), backend="array").rows

    def test_run_legacy_keywords_raise_pointing_at_options(self, engine):
        with pytest.raises(TypeError, match="ExecutionOptions"):
            engine.run(query(), backend="array", mode="interpreted")

    def test_explain_legacy_keywords_raise(self, engine):
        with pytest.raises(TypeError, match="ExecutionOptions"):
            engine.explain(query(), backend="array")

    def test_run_unknown_keyword_raises(self, engine):
        with pytest.raises(TypeError, match="unexpected keyword"):
            engine.run(query(), executor_name="process")

    def test_query_attached_options_are_used(self, engine):
        attached = ConsolidationQuery.build(
            "cube",
            group_by={"dim0": "h01"},
            options=ExecutionOptions(backend="array", mode="interpreted"),
        )
        result = engine.run(attached)
        assert result.mode == "interpreted"

    def test_builder_options_chain(self, engine):
        result = (
            ConsolidationQuery.builder("cube")
            .group_by("dim0", "h01")
            .options(backend="array", shards=2, executor="thread")
            .run(engine)
        )
        assert result.rows == engine.query(query(), backend="array").rows

    def test_auto_mode_resolves_per_aggregate(self, engine):
        assert engine.query(query(), backend="array").mode == "vectorized"
        stddev = ConsolidationQuery.build(
            "cube", group_by={"dim0": "h01"}, aggregate="stddev"
        )
        assert engine.query(stddev, backend="array").mode == "interpreted"

