"""EXPLAIN / EXPLAIN ANALYZE through the engine: estimates vs. actuals.

The acceptance property: on a cold array run the planner's estimates
are *exact* — the scan node's estimated ``chunks_read`` and
``cells_scanned`` equal the :class:`MetricsRegistry` counter deltas the
same query produces, because both derive from the same chunk directory
and the simulator is deterministic.
"""

import pytest

from repro.bench import query1_for, query2_for
from repro.data import (
    SyntheticCubeConfig,
    cube_schema_for,
    generate_dimension_rows,
    generate_fact_rows,
)
from repro.errors import PlanError
from repro.olap import ConsolidationQuery, OlapEngine
from repro.olap.query import SelectionPredicate

CONFIG = SyntheticCubeConfig(
    name="xcube",
    dim_sizes=(8, 6, 10),
    n_valid=200,
    chunk_shape=(4, 3, 5),
    fanout1=3,
    fanout2=2,
    seed=7,
)


@pytest.fixture(scope="module")
def engine():
    engine = OlapEngine(page_size=1024, pool_bytes=1024 * 1024)
    engine.load_cube(
        cube_schema_for(CONFIG),
        generate_dimension_rows(CONFIG),
        generate_fact_rows(CONFIG),
        chunk_shape=CONFIG.chunk_shape,
        fact_btrees=True,
    )
    return engine


def _node(plan, op):
    matches = [n for n in plan.root.walk() if n.op == op]
    assert matches, f"plan has no {op!r} node"
    return matches[0]


class TestArrayExactness:
    def test_scan_actuals_equal_registry_deltas_of_the_same_query(
        self, engine
    ):
        plan = engine.explain(query1_for(CONFIG), "array", analyze=True, cold=True)
        reference = engine.query(query1_for(CONFIG), backend="array", cold=True)
        scan = _node(plan, "array.scan_chunks")
        # actuals are the registry counter deltas over the scan span;
        # the reference run's merged stats are the same deltas for the
        # whole query, and scanning is the only phase that touches them
        assert scan.actuals["chunks_read"] == reference.stats["chunks_read"]
        assert (
            scan.actuals["cells_scanned"] == reference.stats["cells_scanned"]
        )

    def test_cold_estimates_are_exact(self, engine):
        plan = engine.explain(query1_for(CONFIG), "array", analyze=True, cold=True)
        scan = _node(plan, "array.scan_chunks")
        for name in ("chunks_read", "cells_scanned", "chunk_bytes_read",
                     "dir_loads"):
            assert scan.estimates[name] == scan.actuals[name], name
        assert scan.worst_misestimate() == pytest.approx(1.0)
        mappings = _node(plan, "array.resolve_mappings")
        assert (
            mappings.estimates["i2i_loads"] == mappings.actuals["i2i_loads"]
        )

    def test_every_estimated_metric_gets_a_ratio(self, engine):
        plan = engine.explain(query2_for(CONFIG), "array", analyze=True, cold=True)
        estimated = [n for n in plan.root.walk() if n.estimates]
        assert estimated
        for node in estimated:
            assert set(node.misestimates()) == set(node.estimates)
            assert node.worst_misestimate() >= 1.0

    def test_selection_probe_estimates(self, engine):
        plan = engine.explain(query2_for(CONFIG), "array", analyze=True, cold=True)
        lookup = _node(plan, "array.btree_dimension_lookup")
        # one probe per in-list value, known exactly from the predicate
        assert lookup.estimates["btree_probes"] == CONFIG.ndim
        assert lookup.actuals["btree_probes"] == CONFIG.ndim
        probe = _node(plan, "array.consolidate_with_selection")
        assert (
            probe.estimates["cross_product_size"]
            == probe.actuals["cross_product_size"]
        )


class TestSelectionKernelEstimates:
    """EXPLAIN follows the selection kernel.

    ``array.probe_chunks`` is priced by the rule the kernel itself
    applies, from the directory the walk reads: what the walk prunes is
    estimated (it used to show ``chunks_skipped=70`` beside an
    ``empty_chunks_skipped=0`` estimate and nothing else), a filtered
    chunk estimates no probes (it used to estimate the whole cross
    product for every query), and the cells folded are estimated at all.
    """

    @pytest.fixture(scope="class")
    def small(self):
        from repro.bench import bench_settings, build_cube_engine
        from repro.data.datasets import dataset1

        config = dataset1("small")[1]
        return build_cube_engine(config, bench_settings("small")), config

    @staticmethod
    def _one_dimension(config):
        """``dim0.h01 = AA0``: one value of ten, all chunks filtered."""
        return ConsolidationQuery.build(
            config.name,
            group_by={"dim1": "h11"},
            selections=[SelectionPredicate.in_list("dim0", "h01", "AA0")],
        )

    @staticmethod
    def _within_2x(node):
        assert node.estimates, node.op
        for name, estimate in node.estimates.items():
            actual = node.actuals.get(name, 0)
            if not actual:
                assert estimate == 0, f"{name}: estimated {estimate}, no actual"
            else:
                assert actual / 2 <= estimate <= actual * 2, (
                    f"{name}: estimated {estimate}, actual {actual}"
                )

    @pytest.mark.parametrize("which", ["one_dimension", "query2"])
    def test_probe_node_estimates_within_2x_of_actuals(self, small, which):

        engine, config = small
        query = (
            self._one_dimension(config)
            if which == "one_dimension"
            else query2_for(config)
        )
        plan = engine.explain(
            query,
            "array",
            analyze=True,
            cold=True,
        )
        probe = _node(plan, "array.probe_chunks")
        self._within_2x(probe)
        # the walk's keys are read off the same directory: exact cold
        for name in ("chunks_read", "chunk_bytes_read", "chunks_skipped"):
            assert probe.estimates[name] == probe.actuals.get(name, 0), name

    def test_estimates_name_the_direction(self, small):

        engine, config = small
        filtered = _node(
            engine.explain(self._one_dimension(config), "array"),
            "array.probe_chunks",
        )
        assert filtered.estimates["cells_probed"] == 0
        assert filtered.estimates["cells_scanned"] > 0
        probed = _node(
            engine.explain(query2_for(config), "array"), "array.probe_chunks"
        )
        assert probed.estimates["cells_probed"] == 10


class TestPlanShape:
    def test_estimate_only_plan_has_no_actuals(self, engine):
        plan = engine.explain(query1_for(CONFIG), "array")
        assert not plan.analyzed
        assert all(n.actuals is None for n in plan.root.walk())
        assert plan.worst_misestimate() is None

    def test_auto_resolution_matches_query_and_is_recorded(self, engine):
        plan = engine.explain(query2_for(CONFIG), "auto")
        result = engine.query(query2_for(CONFIG), backend="auto")
        assert plan.backend == result.backend
        assert plan.planner["requested"] == "auto"
        assert plan.planner["reason"]
        assert plan.backend in plan.planner["available_backends"]

    def test_fingerprint_keyed_by_requested_backend(self, engine):
        from repro.serve.fingerprint import query_fingerprint

        plan = engine.explain(query2_for(CONFIG), "auto")
        assert plan.fingerprint == query_fingerprint(
            query2_for(CONFIG), "auto"
        )

    def test_unavailable_backend_raises_plan_error(self):
        engine = OlapEngine(page_size=1024, pool_bytes=1024 * 1024)
        engine.load_cube(
            cube_schema_for(CONFIG),
            generate_dimension_rows(CONFIG),
            generate_fact_rows(CONFIG),
            chunk_shape=CONFIG.chunk_shape,
            backends=("array",),
        )
        with pytest.raises(PlanError, match="'bitmap' not available"):
            engine.explain(query2_for(CONFIG), "bitmap")

    @pytest.mark.parametrize("backend", ("array", "starjoin", "bitmap"))
    def test_every_backend_produces_an_analyzable_plan(self, engine, backend):
        query = query1_for(CONFIG) if backend == "starjoin" else query2_for(CONFIG)
        plan = engine.explain(query, backend, analyze=True)
        assert plan.analyzed
        assert plan.rows == len(engine.query(query, backend=backend).rows)
        analyzed = [n for n in plan.root.walk() if n.actuals is not None]
        assert analyzed, f"{backend} plan has no analyzed nodes"
        assert plan.root.op == f"{backend}.query"

    def test_explain_takes_options(self, engine):
        plan = engine.explain(query1_for(CONFIG), "array")
        assert plan.cube == CONFIG.name
        assert plan.backend == "array"


class TestMisestimateMetrics:
    def test_analyze_feeds_histogram_and_counters(self, engine):
        registry = engine.db.metrics
        before = registry.histogram(
            "engine.explain.misestimate_factor"
        ).count if (
            "engine.explain.misestimate_factor" in registry.histogram_names()
        ) else 0
        engine.explain(query1_for(CONFIG), "array", analyze=True)
        histogram = registry.histogram("engine.explain.misestimate_factor")
        assert histogram.count > before
        totals = registry.merged_snapshot()
        assert totals["explain.analyzed"] >= 1
        assert totals["explain.nodes_analyzed"] >= 1

    def test_counters_survive_cold_resets(self, engine):
        engine.explain(query1_for(CONFIG), "array", analyze=True)
        engine.query(query1_for(CONFIG), backend="array", cold=True)  # resets stats
        assert engine.db.metrics.merged_snapshot()["explain.analyzed"] >= 1
