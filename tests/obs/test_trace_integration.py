"""End-to-end tracing: span totals must equal the cold-run cost report.

The simulated disk is deterministic, so a traced cold run and an
untraced cold run of the same query account identical I/O — the root
span's inclusive counter deltas ARE the query's ``stats``, and the
exclusive per-phase shares telescope back to that total exactly.
"""

import pytest

from repro.bench import (
    bench_settings,
    build_cube_engine,
    query1_for,
    query2_for,
    run_cold,
    run_cold_traced,
)
from repro.bench.report import write_trace
from repro.data import SyntheticCubeConfig
from repro.obs import get_tracer
from tests.prom_text import trace_from_json

TINY = SyntheticCubeConfig(
    name="tiny",
    dim_sizes=(6, 6, 6, 10),
    n_valid=150,
    chunk_shape=(3, 3, 3, 5),
    fanout1=3,
)


@pytest.fixture(scope="module")
def engine():
    engine = build_cube_engine(
        TINY, bench_settings("small"), fact_btrees=True, fact_mbtree=True
    )
    # a fresh engine's first cold run also opens the attribute B-tree
    # handles, which invalidate_caches never drops: without this the
    # run-to-run comparison below depends on which test ran first
    run_cold(engine, query2_for(TINY), "array")
    return engine


BACKENDS = ["array", "bitmap", "btree", "mbtree", "leftdeep"]


class TestTraceEqualsCostReport:
    def test_query1_array_root_io_equals_stats(self, engine):
        result, root = run_cold_traced(engine, query1_for(TINY), "array")
        assert root.name == "query"
        assert root.attrs["backend"] == "array"
        assert root.io == result.stats

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_query2_root_io_equals_stats_per_backend(self, engine, backend):
        result, root = run_cold_traced(engine, query2_for(TINY), backend)
        assert root.io == result.stats

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_leaf_totals_telescope_to_root(self, engine, backend):
        _, root = run_cold_traced(engine, query2_for(TINY), backend)
        assert root.leaf_io_totals() == root.io

    def test_traced_run_matches_untraced_run(self, engine):
        query = query2_for(TINY)
        plain = run_cold(engine, query, "array")
        traced, root = run_cold_traced(engine, query, "array")
        assert traced.rows == plain.rows
        # counts repeat exactly; simulated seconds are differences of
        # lifetime floats, equal across two runs only to rounding
        assert root.io.keys() == plain.stats.keys()
        for name, value in plain.stats.items():
            if name == "sim_io_s":
                assert root.io[name] == pytest.approx(value, rel=1e-9)
            else:
                assert root.io[name] == value, name
        assert traced.sim_io_s == pytest.approx(plain.sim_io_s, rel=1e-9)

    def test_phases_present_for_selection_query(self, engine):
        _, root = run_cold_traced(engine, query2_for(TINY), "array")
        for phase in (
            "resolve_mappings", "btree_dimension_lookup", "probe_chunks",
            "extract_rows",
        ):
            assert root.find(phase) is not None, phase

    def test_starjoin_phases(self, engine):
        _, root = run_cold_traced(engine, query1_for(TINY), "starjoin")
        for phase in ("build_dimension_hashes", "scan_fact", "finalize_groups"):
            assert root.find(phase) is not None, phase


class TestDisabledByDefault:
    def test_untraced_query_records_nothing(self, engine):
        assert not get_tracer().enabled
        result = run_cold(engine, query1_for(TINY), "array")
        assert result.rows  # ran fine with the no-op tracer

    def test_registry_sources_cover_storage_stack(self, engine):
        names = engine.db.metrics.source_names()
        assert "disk" in names
        assert "pool" in names
        assert any(n.startswith("fact:") for n in names)
        assert any(n.startswith("array:") for n in names)


class TestTraceArtifact:
    def test_write_trace_round_trips(self, engine, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        _, root = run_cold_traced(engine, query1_for(TINY), "array")
        path = write_trace("tiny_experiment", root)
        assert path.endswith("tiny_experiment.trace.json")
        spans = trace_from_json(open(path, encoding="utf-8").read())
        assert spans[0].io == root.io
