"""The query service as a trace participant.

Every admitted query runs under a resolved :class:`TraceContext` —
explicit options first, then the submitting thread's installed context,
then a service-minted root — and records its outcome (span roots,
fingerprint, slowlog entry, latency exemplar) under that identity.
"""

import pytest

from repro.obs.tracing import new_trace_context, trace_context
from repro.olap import ConsolidationQuery
from repro.olap.options import ExecutionOptions
from repro.serve import QueryService, ServiceConfig

from .conftest import CONFIG

QUERY = ConsolidationQuery.build(
    CONFIG.name, group_by={"dim0": "h01", "dim1": "h11"}
)


@pytest.fixture
def service(engine):
    svc = QueryService(
        engine, ServiceConfig(max_workers=2, slowlog_threshold_s=0.0)
    )
    yield svc
    svc.close()


class TestContextResolution:
    def test_service_mints_when_caller_has_none(self, service):
        service.execute(QUERY)
        entry = service.slowlog.entries()[-1]
        assert entry.trace_id
        record = service.traces.get(entry.trace_id)
        assert record is not None
        assert record.origin == "service"

    def test_explicit_options_context_wins(self, service):
        ctx = new_trace_context(origin="caller")
        service.execute(QUERY, ExecutionOptions(trace=ctx))
        assert service.slowlog.entries()[-1].trace_id == ctx.trace_id

    def test_callers_installed_context_survives_the_pool_hop(self, service):
        ctx = new_trace_context(origin="api")
        with trace_context(ctx):
            service.execute(QUERY)
        assert service.slowlog.entries()[-1].trace_id == ctx.trace_id

    def test_trace_never_changes_the_fingerprint(self, service):
        service.execute(QUERY)
        baseline = service.slowlog.entries()[-1].fingerprint
        service.execute(
            QUERY, ExecutionOptions(trace=new_trace_context())
        )
        assert service.slowlog.entries()[-1].fingerprint == baseline


class TestQueryRecord:
    def test_record_carries_spans_and_fingerprint(self, service):
        service.execute(QUERY)
        entry = service.slowlog.entries()[-1]
        record = service.traces.get(entry.trace_id)
        assert record.name == f"query:{CONFIG.name}"
        assert record.attrs["fingerprint"] == entry.fingerprint
        assert record.attrs["cube"] == CONFIG.name
        assert record.span_count() >= 1
        assert record.roots[0]["name"] == "serve_query"

    def test_failed_query_records_error_status(self, service):
        bad = ConsolidationQuery.build(
            CONFIG.name, group_by={"dim0": "h99"}
        )
        with pytest.raises(Exception):
            service.execute(bad)
        index = service.traces.index()
        assert index and index[0]["status"] not in ("ok", "")

    def test_latency_exemplar_names_a_resident_trace(self, service):
        service.execute(QUERY)
        histogram = service._histograms["serve.query_latency_seconds"]
        exemplars = [e for e in histogram.exemplars() if e is not None]
        assert exemplars
        trace_id, value = exemplars[0]
        assert service.traces.get(trace_id) is not None
        assert value > 0

    def test_store_counters_registered(self, service):
        service.execute(QUERY)
        registry = service.engine.db.metrics
        snapshot = registry.snapshot_by_source().get("serve:traces", {})
        assert snapshot.get("traces.stored", 0) >= 1
