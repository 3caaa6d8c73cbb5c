"""Observability: tracing, metrics, latency histograms, live endpoint.

The paper's argument is a cost breakdown — chunk fetches vs. tuple
fetches, B-tree probes vs. positional access — so the reproduction
carries a first-class accounting layer:

- :mod:`repro.obs.tracer` — span-based tracing of query phases.  Every
  instrumented call site asks :func:`get_tracer` for the active tracer;
  the default is a shared no-op whose spans cost one method call, so
  benchmark numbers are unaffected unless a real :class:`Tracer` is
  installed (via :func:`tracing`, or per-thread via
  :class:`thread_tracing`).
- :mod:`repro.obs.registry` — a :class:`MetricsRegistry` into which
  every counter source (disk, buffer pool, WAL, fact files, OLAP
  arrays, per-query bags) registers.  A tracer bound to a registry
  snapshots it at span boundaries, so each span carries the simulated
  I/O it caused.  Gauges and latency :class:`Histogram` distributions
  ride along for the exporter.
- :mod:`repro.obs.histogram` — fixed log-scale-bucket latency
  histograms: lock-cheap ``observe``, mergeable, p50/p95/p99, JSON
  round-trip, Prometheus ``_bucket``/``_sum``/``_count`` export.
- :mod:`repro.obs.tracing` — the request layer over the tracer:
  :class:`TraceContext` identity propagated across threads, and the
  bounded :class:`TraceStore` flight recorder — each request's one
  record, slow and failed traces evicted after fast ones — behind
  ``/traces`` and ``/trace/id/<trace_id>``.
- :mod:`repro.obs.explain` — EXPLAIN / EXPLAIN ANALYZE plan trees:
  per-node planner estimates, measured actuals from span counter
  deltas, misestimate factors, text rendering and a fingerprint-keyed
  :class:`PlanCache`.
- :mod:`repro.obs.exporters` — JSON trace dump, text tree rendering,
  Prometheus text exposition (its linter is the tests').  Trends are
  a scraper's to window: ``/metrics`` exports every counter and
  cumulative histogram, exemplars included.
- :mod:`repro.obs.memory` — shape-charged resident-set accounting with
  pressure-aware eviction (``/memory``), the budget checked where a
  store grows.
- :mod:`repro.obs.server` — the introspection route table (``ROUTES``:
  ``/metrics``, ``/healthz``, ``/traces``, …) that
  :class:`repro.api.server.ApiServer` mounts.
"""

from repro.obs.explain import (
    MISESTIMATE_FACTOR_THRESHOLD,
    PlanCache,
    PlanNode,
    QueryPlan,
    attach_actuals,
    render_plan,
)
from repro.obs.histogram import DEFAULT_BOUNDS, Histogram, quantile_from_buckets
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    thread_tracing,
    tracing,
)
from repro.obs.exporters import (
    prometheus_text,
    render_span_tree,
    span_from_dict,
    span_to_dict,
    trace_to_json,
)
from repro.obs.tracing import (
    TraceContext,
    TraceRecord,
    TraceStore,
    adopt_trace_id,
    current_trace_context,
    new_trace_context,
    trace_context,
)

# importing the repro.obs.tracing submodule rebinds the package
# attribute "tracing" to the module object; restore the tracer's
# context manager, which this package has always exported as `tracing`
from repro.obs.tracer import tracing as tracing  # noqa: E402, F811
from repro.obs.server import ObservabilityRoutes


__all__ = [
    "DEFAULT_BOUNDS",
    "MISESTIMATE_FACTOR_THRESHOLD",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ObservabilityRoutes",
    "PlanCache",
    "PlanNode",
    "QueryPlan",
    "Span",
    "TraceContext",
    "TraceRecord",
    "TraceStore",
    "Tracer",
    "adopt_trace_id",
    "attach_actuals",
    "current_trace_context",
    "get_tracer",
    "new_trace_context",
    "prometheus_text",
    "quantile_from_buckets",
    "render_plan",
    "render_span_tree",
    "set_tracer",
    "span_from_dict",
    "span_to_dict",
    "thread_tracing",
    "trace_context",
    "trace_to_json",
    "tracing",
]
