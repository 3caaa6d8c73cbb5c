"""How a query runs is one ``backend`` name, and the knobs it no longer has.

Every entry point that runs or plans a query takes that name beside the
query; no options object carries it.  Shards are not among the knobs:
``OlapEngine.query``'s ``shards`` and ``executor`` keywords are the one
way into :mod:`repro.shard`, and ``query`` checks them itself.
"""

import dataclasses
import inspect
import warnings

import pytest

from repro.core.consolidate import ResultAccumulator
from repro.errors import QueryError
from repro.olap import ConsolidationQuery, OlapEngine
from repro.serve import QueryService, ServiceConfig, query_fingerprint

#: every entry point that takes the backend name beside the query
BACKEND_SURFACES = (
    OlapEngine.query,
    OlapEngine.plan,
    OlapEngine.explain,
    OlapEngine.explain_analyze,
    QueryService.execute,
    QueryService.explain,
    query_fingerprint,
)


def query():
    return ConsolidationQuery.build("cube", group_by={"dim0": "h01"})


class TestValidation:
    def test_defaults(self):
        for surface in BACKEND_SURFACES:
            backend = inspect.signature(surface).parameters["backend"]
            assert backend.default == "auto", surface.__qualname__

    @pytest.mark.parametrize(
        "bad",
        [
            {"shards": -1},
            {"executor": "fiber"},
            {"shards": 0},
        ],
    )
    def test_bad_values_rejected(self, engine, bad):
        with pytest.raises(QueryError):
            engine.query(query(), backend="array", **bad)

    def test_one_surface_is_counted(self):
        # the backend name beside the query is the one way to say how a
        # query runs; only engine.query shards
        for surface in BACKEND_SURFACES:
            params = list(inspect.signature(surface).parameters)
            assert params.index("backend") == params.index("query") + 1
        keywords = list(inspect.signature(OlapEngine.query).parameters)[2:]
        assert keywords == ["backend", "mode", "cold", "shards", "executor"]
        assert len(dataclasses.fields(ServiceConfig)) == 4
        assert "options" not in {
            f.name for f in dataclasses.fields(ConsolidationQuery)
        }


class TestEngineSurface:
    def test_run_accepts_options(self, engine):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the one surface must not warn
            result = engine.query(
                query(), backend="array", shards=2, executor="thread"
            )
        assert result.rows == engine.query(query(), backend="array").rows

    def test_run_unknown_keyword_raises(self, engine):
        with pytest.raises(TypeError, match="unexpected keyword"):
            engine.query(query(), executor_name="process")

    @pytest.mark.parametrize(
        "keywords",
        [{"shards": 0}, {"executor": "fiber"}],
        ids=["shards", "executor"],
    )
    def test_query_keywords_are_checked_as_options_are(self, engine, keywords):
        # query checks its shard keywords; no other surface takes them
        with pytest.raises(QueryError):
            engine.query(query(), backend="array", **keywords)
        with pytest.raises(TypeError):
            engine.explain(query(), backend="array", **keywords)

    def test_query_accepts_only_the_auto_mode(self, engine):
        auto = engine.query(query(), backend="array", mode="auto")
        assert auto.rows == engine.query(query(), backend="array").rows
        with pytest.raises(QueryError, match="mode"):
            engine.query(query(), backend="array", mode="interpreted")


class TestMomentsRunTheKernel:
    """``var``/``stddev`` fold as moment columns on every route."""

    @pytest.mark.parametrize("aggregate", ["var", "stddev"])
    def test_every_route_agrees_with_the_relational_fold(
        self, engine, aggregate, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("a query ran the per-cell reference kernel")

        # the per-cell loops' one input: the kernel every query runs
        # composes tables instead
        monkeypatch.setattr(ResultAccumulator, "mapping_lists", refuse)
        moments = ConsolidationQuery.build(
            "cube", group_by={"dim0": "h01", "dim1": "h11"}, aggregate=aggregate
        )
        expected = engine.query(moments, backend="starjoin").rows
        results = [engine.query(moments, backend="array")]
        results += [
            engine.query(moments, backend="array", shards=3, executor=executor)
            for executor in ("local", "thread", "process")
        ]
        with QueryService(engine) as service:
            results.append(
                service.execute(moments, "array")
            )
        for result in results:
            assert result.backend == "array"
            assert [row[:-1] for row in result.rows] == [
                row[:-1] for row in expected
            ]
            assert [row[-1] for row in result.rows] == pytest.approx(
                [row[-1] for row in expected]
            )
