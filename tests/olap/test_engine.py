"""Integration tests for the OLAP engine: backend parity is the oracle."""

import pytest

from repro.errors import CatalogError, PlanError, QueryError
from repro.olap import ConsolidationQuery, SelectionPredicate, planner

from .conftest import CONFIG, reference

Q1 = ConsolidationQuery.build(
    "cube", group_by={"dim0": "h01", "dim1": "h11", "dim2": "h21"}
)
Q2 = ConsolidationQuery.build(
    "cube",
    group_by={"dim0": "h01", "dim1": "h11", "dim2": "h21"},
    selections=[
        SelectionPredicate("dim0", "h01", values=("AA0",)),
        SelectionPredicate("dim1", "h11", values=("AA1",)),
        SelectionPredicate("dim2", "h21", values=("AA2",)),
    ],
)
Q3 = ConsolidationQuery.build(
    "cube",
    group_by={"dim0": "h01", "dim1": "h11"},
    selections=[
        SelectionPredicate("dim0", "h01", values=("AA1",)),
        SelectionPredicate("dim1", "h11", values=("AA0",)),
    ],
)

GROUPS_Q1 = [(0, 1), (1, 1), (2, 1)]


class TestQuery1:
    def test_array_matches_reference(self, engine, fact_rows):
        result = engine.query(Q1, backend="array")
        assert result.rows == reference(fact_rows, CONFIG, GROUPS_Q1)

    @pytest.mark.parametrize("backend", ["starjoin", "leftdeep"])
    def test_relational_backends_match(self, engine, fact_rows, backend):
        result = engine.query(Q1, backend=backend)
        assert result.rows == reference(fact_rows, CONFIG, GROUPS_Q1)

    def test_vectorized_array_matches(self, engine, fact_rows):
        # the call form the benchmark makes
        result = engine.query(Q1, backend="array", mode="auto", cold=True)
        assert result.rows == reference(fact_rows, CONFIG, GROUPS_Q1)

    def test_auto_picks_array_without_selection(self, engine):
        assert engine.query(Q1, backend="auto").backend == "array"

    def test_group_by_coarser_level(self, engine, fact_rows):
        query = ConsolidationQuery.build(
            "cube", group_by={"dim0": "h02", "dim2": "h22"}
        )
        expected = reference(fact_rows, CONFIG, [(0, 2), (2, 2)])
        for backend in ("array", "starjoin"):
            assert engine.query(query, backend=backend).rows == expected

    def test_group_by_key_attribute(self, engine, fact_rows):
        query = ConsolidationQuery.build(
            "cube", group_by={"dim1": "d1", "dim0": "h01"}
        )
        expected = reference(fact_rows, CONFIG, [(1, 0), (0, 1)])
        for backend in ("array", "starjoin", "leftdeep"):
            assert engine.query(query, backend=backend).rows == expected


class TestQuery2:
    @pytest.mark.parametrize("backend", ["array", "starjoin", "bitmap", "btree", "leftdeep"])
    def test_all_backends_agree(self, engine, fact_rows, backend):
        expected = reference(
            fact_rows,
            CONFIG,
            GROUPS_Q1,
            selected={0: {"AA0"}, 1: {"AA1"}, 2: {"AA2"}},
        )
        assert engine.query(Q2, backend=backend).rows == expected

    def test_in_list_selection(self, engine, fact_rows):
        query = ConsolidationQuery.build(
            "cube",
            group_by={"dim0": "h01", "dim1": "h11", "dim2": "h21"},
            selections=[SelectionPredicate("dim1", "h11", values=("AA0", "AA2"))],
        )
        expected = reference(
            fact_rows, CONFIG, GROUPS_Q1, selected={1: {"AA0", "AA2"}}
        )
        for backend in ("array", "bitmap", "starjoin"):
            assert engine.query(query, backend=backend).rows == expected

    def test_selection_on_key_attribute(self, engine, fact_rows):
        query = ConsolidationQuery.build(
            "cube",
            group_by={"dim0": "h01"},
            selections=[SelectionPredicate("dim1", "d1", values=(2, 3))],
        )
        groups = {}
        for row in fact_rows:
            if row[1] in (2, 3):
                key = (f"AA{row[0] % CONFIG.fanout1}",)
                groups[key] = groups.get(key, 0) + row[-1]
        expected = sorted(k + (v,) for k, v in groups.items())
        for backend in ("array", "starjoin", "btree"):
            assert engine.query(query, backend=backend).rows == expected


class TestQuery3:
    @pytest.mark.parametrize("backend", ["array", "starjoin", "bitmap", "btree", "leftdeep"])
    def test_ungrouped_dimension_aggregated_away(self, engine, fact_rows, backend):
        expected = reference(
            fact_rows,
            CONFIG,
            [(0, 1), (1, 1)],
            selected={0: {"AA1"}, 1: {"AA0"}},
        )
        assert engine.query(Q3, backend=backend).rows == expected

    def test_selection_on_ungrouped_dimension(self, engine, fact_rows):
        query = ConsolidationQuery.build(
            "cube",
            group_by={"dim0": "h01"},
            selections=[SelectionPredicate("dim2", "h21", values=("AA0",))],
        )
        expected = reference(
            fact_rows, CONFIG, [(0, 1)], selected={2: {"AA0"}}
        )
        for backend in ("array", "bitmap", "starjoin", "btree"):
            assert engine.query(query, backend=backend).rows == expected


class TestAggregates:
    @pytest.mark.parametrize("aggregate", ["count", "min", "max", "avg"])
    def test_array_and_starjoin_agree(self, engine, aggregate):
        query = ConsolidationQuery.build(
            "cube",
            group_by={"dim0": "h01", "dim1": "h11"},
            aggregate=aggregate,
        )
        array = engine.query(query, backend="array").rows
        starjoin = engine.query(query, backend="starjoin").rows
        for a, b in zip(array, starjoin):
            assert a[:-1] == b[:-1]
            assert a[-1] == pytest.approx(b[-1])

    def test_variance_through_both_designs(self, engine):
        query = ConsolidationQuery.build(
            "cube", group_by={"dim0": "h01"}, aggregate="var"
        )
        array = engine.query(query, backend="array").rows
        starjoin = engine.query(query, backend="starjoin").rows
        for a, b in zip(array, starjoin):
            assert a[0] == b[0]
            assert a[1] == pytest.approx(b[1])

    def test_variance_with_selection(self, engine):
        query = ConsolidationQuery.build(
            "cube",
            group_by={"dim0": "h01"},
            selections=[SelectionPredicate("dim1", "h11", values=("AA0",))],
            aggregate="stddev",
        )
        array = engine.query(query, backend="array").rows
        bitmap = engine.query(query, backend="bitmap").rows
        for a, b in zip(array, bitmap):
            assert a[0] == b[0]
            assert a[1] == pytest.approx(b[1])


class TestGroupByOrder:
    def test_query_order_respected_by_every_backend(self, engine):
        query = ConsolidationQuery.build(
            "cube", group_by={"dim2": "h21", "dim0": "h01"}
        )
        results = {
            backend: engine.query(query, backend=backend).rows
            for backend in ("array", "starjoin", "leftdeep")
        }
        baseline = results.pop("starjoin")
        assert baseline, "expected non-empty result"
        for rows in results.values():
            assert rows == baseline
        # first group column must be dim2's h21 (a string like AA0)
        assert all(r[0].startswith("AA") for r in baseline)


class TestPlannerIntegration:
    def test_auto_with_selection_above_crossover(self, engine):
        assert engine.query(Q2, backend="auto").backend == "array"

    def test_auto_below_crossover_picks_bitmap(self, engine, monkeypatch):
        monkeypatch.setattr(planner, "DEFAULT_CROSSOVER_SELECTIVITY", 1.0)
        result = engine.query(Q2, backend="auto")
        assert result.backend == "bitmap"

    def test_estimate_selectivity(self, engine):
        # fanout1=3 over sizes 8,6,10; h01='AA0' matches ceil-ish thirds
        s = engine.estimate_selectivity(Q2)
        assert 0 < s < 0.2


class TestResultMetadata:
    def test_cost_combines_cpu_and_io(self, engine):
        result = engine.query(Q1, backend="array")
        assert result.cost_s == result.elapsed_s + result.sim_io_s
        assert result.sim_io_s > 0  # cold run touched the disk

    def test_cold_vs_warm_io(self, engine):
        cold = engine.query(Q1, backend="starjoin", cold=True)
        warm = engine.query(Q1, backend="starjoin", cold=False)
        assert warm.stats.get("pages_read", 0) <= cold.stats["pages_read"]

    def test_stats_contain_algorithm_counters(self, engine):
        result = engine.query(Q1, backend="starjoin")
        assert result.stats["fact_tuples_scanned"] == CONFIG.n_valid
        array_result = engine.query(Q1, backend="array")
        assert array_result.stats["cells_scanned"] == CONFIG.n_valid

    def test_len_is_row_count(self, engine):
        result = engine.query(Q1, backend="array")
        assert len(result) == len(result.rows)


class TestStorageReport:
    def test_report_contains_both_designs(self, engine):
        report = engine.storage_report("cube")
        assert report["fact_file"] > 0
        assert report["array_total"] > report["array_chunks"] > 0
        assert report["bitmap_indices"] > 0
        assert report["btree_indices"] > 0
        assert report["dimension_tables"] > 0


class TestValidation:
    def test_unknown_cube(self, engine):
        with pytest.raises(CatalogError):
            engine.query(
                ConsolidationQuery.build("ghost", group_by={"dim0": "h01"})
            )

    def test_unknown_backend(self, engine):
        with pytest.raises(PlanError):
            engine.query(Q1, backend="quantum")

    def test_unknown_attribute(self, engine):
        query = ConsolidationQuery.build("cube", group_by={"dim0": "bogus"})
        with pytest.raises(QueryError):
            engine.query(query)

    def test_btree_backend_requires_selection(self, engine):
        with pytest.raises(PlanError):
            engine.query(Q1, backend="btree")

    def test_duplicate_cube_rejected(self, engine, schema):
        with pytest.raises(CatalogError):
            engine.load_cube(schema, {}, [])


class TestPartialBuilds:
    def test_array_only_cube(self, schema, fact_rows):
        from repro.data import generate_dimension_rows
        from repro.olap import OlapEngine

        engine = OlapEngine(page_size=1024, pool_bytes=512 * 1024)
        engine.load_cube(
            schema,
            generate_dimension_rows(CONFIG),
            fact_rows,
            chunk_shape=CONFIG.chunk_shape,
            backends=("array",),
        )
        assert engine.query(Q1, backend="array").rows
        with pytest.raises(PlanError):
            engine.query(Q1, backend="starjoin")

    def test_relational_only_cube(self, schema, fact_rows):
        from repro.data import generate_dimension_rows
        from repro.olap import OlapEngine

        engine = OlapEngine(page_size=1024, pool_bytes=512 * 1024)
        engine.load_cube(
            schema,
            generate_dimension_rows(CONFIG),
            fact_rows,
            backends=("relational",),
        )
        assert engine.query(Q1, backend="auto").backend == "starjoin"
        with pytest.raises(PlanError):
            engine.query(Q1, backend="array")
