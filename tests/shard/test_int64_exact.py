"""int64 measures past 2**53 aggregate exactly on every route.

float64 holds integers exactly only up to 2**53, so a fold that
accumulates int64 measures in float64 silently disagrees with an exact
fold (Python ints) above that.  Every route to an answer — the array's
``consolidate`` and the per-cell reference kernel, the thread and
process shard executors (whose partial states cross ``export_state`` /
``import_state``), ``QueryService.execute``, the two relational
backends and the harness's three relational baselines, whose fetched
columns fold through the same column fold —
must return what an exact fold of the fact rows returns.
"""

import pytest

from repro.bench import run_cold
from repro.core import ConsolidationSpec, consolidate
from repro.core.consolidate import ResultAccumulator, scan_chunk_range
from repro.data import (
    SyntheticCubeConfig,
    cube_schema_for,
    generate_dimension_rows,
    generate_fact_rows,
)
from repro.olap import ConsolidationQuery, OlapEngine, SelectionPredicate
from repro.serve import QueryService

BIG = 2**53 + 1

CONFIG = SyntheticCubeConfig(
    name="big",
    dim_sizes=(4, 6),
    n_valid=20,
    chunk_shape=(2, 3),
    fanout1=2,
    fanout2=2,
    seed=3,
)


@pytest.fixture(scope="module")
def loaded():
    engine = OlapEngine(page_size=1024, pool_bytes=1024 * 1024)
    fact_rows = [
        row[:-1] + (BIG + 2 * i,)
        for i, row in enumerate(generate_fact_rows(CONFIG))
    ]
    engine.load_cube(
        cube_schema_for(CONFIG),
        generate_dimension_rows(CONFIG),
        fact_rows,
        chunk_shape=CONFIG.chunk_shape,
        fact_btrees=True,
        fact_mbtree=True,
    )
    yield engine, fact_rows
    engine.close_shards()


def exact_fold(fact_rows, aggregate):
    """Group by dim0's h01 with Python-int arithmetic."""
    groups: dict[str, list[int]] = {}
    for row in fact_rows:
        groups.setdefault(f"AA{row[0] % CONFIG.fanout1}", []).append(row[-1])
    fold = {
        "sum": sum,
        "min": min,
        "max": max,
        "count": len,
        "avg": lambda values: sum(values) / len(values),
    }[aggregate]
    return sorted((key, fold(values)) for key, values in groups.items())


def query(aggregate, selections=()):
    return ConsolidationQuery.build(
        "big",
        group_by={"dim0": "h01"},
        aggregate=aggregate,
        selections=list(selections),
    )


#: selects every fact tuple, so that the selection backends run too
EVERY_H01 = SelectionPredicate.in_list("dim0", "h01", "AA0", "AA1")


AGGREGATES = ("sum", "min", "max", "avg", "count")


@pytest.mark.parametrize("aggregate", AGGREGATES)
class TestExactPast2Pow53:
    def test_consolidate(self, loaded, aggregate):
        engine, fact_rows = loaded
        array = engine.cube("big").array
        specs = [ConsolidationSpec.level("h01"), ConsolidationSpec.drop()]
        expected = exact_fold(fact_rows, aggregate)
        assert consolidate(array, specs, aggregate=aggregate).rows == expected
        reference = ResultAccumulator(array, specs, aggregate)
        scan_chunk_range(
            array, reference, range(array.geometry.n_chunks), "interpreted"
        )
        assert reference.rows() == expected

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_two_shards(self, loaded, aggregate, executor):
        engine, fact_rows = loaded
        result = engine.query(
            query(aggregate),
            backend="array",
            shards=2,
            executor=executor,
        )
        assert result.stats.get("shards") == 2
        assert result.rows == exact_fold(fact_rows, aggregate)

    def test_query_service(self, loaded, aggregate):
        engine, fact_rows = loaded
        with QueryService(engine) as service:
            result = service.execute(query(aggregate))
        assert result.rows == exact_fold(fact_rows, aggregate)

    @pytest.mark.parametrize(
        "backend", ["starjoin", "bitmap", "btree", "mbtree", "leftdeep"]
    )
    def test_relational(self, loaded, aggregate, backend):
        engine, fact_rows = loaded
        result = run_cold(engine, query(aggregate, [EVERY_H01]), backend)
        assert result.rows == exact_fold(fact_rows, aggregate)
