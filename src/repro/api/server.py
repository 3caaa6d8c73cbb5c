"""The HTTP query surface: slicer-style aggregate requests over stdlib.

``ApiEndpoint`` owns the request pipeline — parse → validate against
the logical model → compile to a base-cube query → answer it through
the :class:`~repro.serve.service.QueryService` → shape the JSON
response — and ``ApiServer`` puts it behind the one
:class:`~http.server.ThreadingHTTPServer` in the tree.  Every answer is
a service query: admitted, cached, degraded-checked and traced.  The
model's rollups are the engine's grains (:mod:`repro.api.rollup`), so
the planner's ``rollup`` route answers a request one covers, and the
response's ``route`` object is the result's.  Routes:

- ``GET /``                        — server info + every route served
- ``GET /cubes``                   — logical cube names
- ``GET /cube/<name>/model``       — one cube's logical model
- ``GET|POST /cube/<name>/aggregate`` — the aggregate request
- ``GET /rollups``                 — rollup-grain residency
- every pattern in :data:`repro.obs.server.ROUTES` (``/metrics``,
  ``/healthz``, ``/traces``, …), mounted here and served *untraced*:
  no trace is minted or stored for them, so a scraper cannot evict the
  query traces it polls for

Aggregate request surface (GET params or POST JSON body; the body shape
is pinned by ``benchmarks/schemas/api_request.schema.json``):

- ``drilldown`` — comma-separated ``dim`` or ``dim:level`` (a bare
  dimension drills to its coarsest level); JSON: list of strings or
  ``{"dimension": ..., "level": ...}`` objects.
- ``cut`` — ``|``-separated ``dim.level:spec`` where spec is either an
  in-list ``v1;v2;v3`` or an inclusive range ``lo..hi``; JSON: list of
  strings or ``{"dimension", "level", "values" | "range"}`` objects.
- ``measure`` / ``measures``, ``aggregate`` (default ``sum``),
- ``explain=1`` embeds the plan JSON (same schema as ``/explain``),
  ``analyze=1`` additionally binds actuals.

Every client mistake on any route maps to a structured 4xx body
``{"error": {"kind", "message", "status"}}`` — a 5xx from this module
is a bug.  A repeated query parameter is a 400 (``|`` joins cuts, ``,``
joins drilldowns), and any method but GET or POST a 405 with an
``Allow: GET, POST`` header.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.api.model import API_AGGREGATES, LogicalCube, LogicalModel
from repro.api.rollup import RollupRouter
from repro.errors import (
    AdmissionError,
    ApiError,
    ApiMethodError,
    ApiNotFoundError,
    ApiRequestError,
    ApiTooLargeError,
    PermanentError,
    ReproError,
    TransientError,
)
from repro.obs.exporters import span_to_dict
from repro.obs.server import ROUTES, ObservabilityRoutes
from repro.obs.tracer import Tracer, thread_tracing
from repro.obs.tracing import (
    TraceContext,
    adopt_trace_id,
    current_trace_context,
    new_trace_context,
    trace_context,
)
from repro.olap.query import ConsolidationQuery, SelectionPredicate
from repro.util.stats import Counters

#: hard caps keeping one request's work bounded (structured 4xx beyond)
MAX_DRILLDOWN_ITEMS = 16
MAX_CUT_ITEMS = 32
MAX_CUT_VALUES = 256
MAX_BODY_BYTES = 64 * 1024

#: a response's ``route`` when no declared grain covers its request
BASE_ROUTE = {
    "source": "base",
    "rollup": None,
    "grain": None,
    "reason": "no declared rollup covers the request",
    "candidates": [],
    "rows_scanned": None,
}


@dataclass(frozen=True)
class Cut:
    """One parsed cut: an in-list or an inclusive range on a level."""

    dimension: str
    attribute: str
    values: tuple = ()
    low: object = None
    high: object = None

    @property
    def is_range(self) -> bool:
        return not self.values

    def matches(self, value) -> bool:
        if self.values:
            return value in self.values
        if self.low is not None and value < self.low:
            return False
        if self.high is not None and value > self.high:
            return False
        return True

    def to_dict(self) -> dict:
        payload: dict = {"dimension": self.dimension, "level": self.attribute}
        if self.values:
            payload["values"] = list(self.values)
        else:
            payload["range"] = [self.low, self.high]
        return payload


@dataclass(frozen=True)
class AggregateRequest:
    """One validated aggregate request against a logical cube."""

    cube: LogicalCube
    drilldown: tuple[tuple[str, str], ...]
    cuts: tuple[Cut, ...] = ()
    aggregate: str = "sum"
    measures: tuple[str, ...] = ()
    explain: bool = False
    analyze: bool = False


def _coerce_key_value(cube: LogicalCube, dimension: str, raw):
    """Keys are integers: a JSON integer or an integer string.  A float
    or a bool is refused, never truncated to a key it did not name."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        try:
            return int(raw)
        except ValueError:
            pass
    raise ApiRequestError(
        f"cut value {raw!r} on key level of dimension {dimension!r} "
        "must be an integer"
    )


def _truthy(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    return str(raw).strip().lower() in ("1", "true", "yes", "on")


class RequestParser:
    """Parses GET params / POST bodies into :class:`AggregateRequest`."""

    def __init__(self, cube: LogicalCube):
        self.cube = cube

    def _level_for(self, dimension: str, attr: str | None) -> str:
        dim = self.cube.dimension(dimension)
        if attr is None:
            return dim.default_level
        dim.level_index(attr)  # raises ApiNotFoundError on unknown level
        return attr

    def _coerce(self, dimension: str, attr: str, raw):
        dim = self.cube.dimension(dimension)
        if attr == dim.hierarchy[0]:
            return _coerce_key_value(self.cube, dimension, raw)
        if not isinstance(raw, str):
            raise ApiRequestError(
                f"cut value {raw!r} on level {attr!r} of dimension "
                f"{dimension!r} must be a string"
            )
        return raw

    # -- drilldown ---------------------------------------------------------

    def drilldown_item(self, raw) -> tuple[str, str]:
        if isinstance(raw, dict):
            dimension = raw.get("dimension")
            if not isinstance(dimension, str):
                raise ApiRequestError(
                    f"drilldown object needs a string 'dimension': {raw!r}"
                )
            level = raw.get("level")
            if level is not None and not isinstance(level, str):
                raise ApiRequestError(
                    f"drilldown 'level' must be a string: {raw!r}"
                )
            return dimension, self._level_for(dimension, level)
        if not isinstance(raw, str) or not raw:
            raise ApiRequestError(f"malformed drilldown item {raw!r}")
        dimension, _, level = raw.partition(":")
        return dimension, self._level_for(dimension, level or None)

    def drilldown(self, items) -> tuple[tuple[str, str], ...]:
        if len(items) > MAX_DRILLDOWN_ITEMS:
            raise ApiRequestError(
                f"{len(items)} drilldown items exceed the cap of "
                f"{MAX_DRILLDOWN_ITEMS}"
            )
        parsed = tuple(self.drilldown_item(item) for item in items)
        dims = [dim for dim, _ in parsed]
        if len(set(dims)) != len(dims):
            raise ApiRequestError(
                f"a dimension may appear once in a drilldown; got {dims}"
            )
        return parsed

    # -- cuts --------------------------------------------------------------

    def cut_item(self, raw) -> Cut:
        if isinstance(raw, dict):
            return self._cut_from_object(raw)
        if not isinstance(raw, str):
            raise ApiRequestError(f"malformed cut item {raw!r}")
        head, sep, spec = raw.partition(":")
        if not sep or not spec:
            raise ApiRequestError(
                f"malformed cut {raw!r}; expected 'dim.level:spec'"
            )
        dimension, sep, attr = head.partition(".")
        if not sep or not attr:
            raise ApiRequestError(
                f"malformed cut target {head!r}; expected 'dim.level'"
            )
        self._level_for(dimension, attr)
        if ".." in spec:
            low_raw, _, high_raw = spec.partition("..")
            low = (
                self._coerce(dimension, attr, low_raw) if low_raw else None
            )
            high = (
                self._coerce(dimension, attr, high_raw) if high_raw else None
            )
            if low is None and high is None:
                raise ApiRequestError(
                    f"cut range {spec!r} needs at least one bound"
                )
            return Cut(dimension=dimension, attribute=attr, low=low, high=high)
        values = tuple(
            self._coerce(dimension, attr, v)
            for v in spec.split(";")
            if v != ""
        )
        if not values:
            raise ApiRequestError(f"cut {raw!r} lists no values")
        if len(values) > MAX_CUT_VALUES:
            raise ApiRequestError(
                f"{len(values)} cut values exceed the cap of {MAX_CUT_VALUES}"
            )
        return Cut(dimension=dimension, attribute=attr, values=values)

    def _cut_from_object(self, raw: dict) -> Cut:
        dimension = raw.get("dimension")
        if not isinstance(dimension, str):
            raise ApiRequestError(
                f"cut object needs a string 'dimension': {raw!r}"
            )
        attr = self._level_for(dimension, raw.get("level"))
        if "values" in raw:
            values_raw = raw["values"]
            if not isinstance(values_raw, list) or not values_raw:
                raise ApiRequestError(
                    f"cut 'values' must be a non-empty list: {raw!r}"
                )
            if len(values_raw) > MAX_CUT_VALUES:
                raise ApiRequestError(
                    f"{len(values_raw)} cut values exceed the cap of "
                    f"{MAX_CUT_VALUES}"
                )
            values = tuple(
                self._coerce(dimension, attr, v) for v in values_raw
            )
            return Cut(dimension=dimension, attribute=attr, values=values)
        if "range" in raw:
            bounds = raw["range"]
            if not isinstance(bounds, list) or len(bounds) != 2:
                raise ApiRequestError(
                    f"cut 'range' must be a [low, high] pair: {raw!r}"
                )
            low = (
                self._coerce(dimension, attr, bounds[0])
                if bounds[0] is not None
                else None
            )
            high = (
                self._coerce(dimension, attr, bounds[1])
                if bounds[1] is not None
                else None
            )
            if low is None and high is None:
                raise ApiRequestError(
                    f"cut range needs at least one bound: {raw!r}"
                )
            return Cut(dimension=dimension, attribute=attr, low=low, high=high)
        raise ApiRequestError(
            f"cut object needs 'values' or 'range': {raw!r}"
        )

    def cuts(self, items) -> tuple[Cut, ...]:
        if len(items) > MAX_CUT_ITEMS:
            raise ApiRequestError(
                f"{len(items)} cuts exceed the cap of {MAX_CUT_ITEMS}"
            )
        return tuple(self.cut_item(item) for item in items)

    # -- whole requests ----------------------------------------------------

    def _finish(
        self, drilldown_items, cut_items, aggregate, measures, explain, analyze
    ) -> AggregateRequest:
        if aggregate not in API_AGGREGATES:
            raise ApiRequestError(
                f"unknown aggregate {aggregate!r}; "
                f"expected one of {list(API_AGGREGATES)}"
            )
        if not measures:
            measures = (self.cube.default_measure,)
        for name in measures:
            self.cube.measure(name)  # raises ApiNotFoundError
        drilldown = self.drilldown(drilldown_items)
        if not drilldown:
            raise ApiRequestError(
                "an aggregate request needs at least one drilldown item"
            )
        return AggregateRequest(
            cube=self.cube,
            drilldown=drilldown,
            cuts=self.cuts(cut_items),
            aggregate=aggregate,
            measures=tuple(measures),
            explain=_truthy(explain),
            analyze=_truthy(analyze),
        )

    def from_params(self, params: dict[str, str]) -> AggregateRequest:
        drilldown_items = [
            item for item in params.get("drilldown", "").split(",") if item
        ]
        cut_items = [
            item for item in params.get("cut", "").split("|") if item
        ]
        measures: tuple[str, ...] = ()
        raw_measures = params.get("measures", params.get("measure", ""))
        if raw_measures:
            measures = tuple(m for m in raw_measures.split(",") if m)
        return self._finish(
            drilldown_items,
            cut_items,
            params.get("aggregate", "sum"),
            measures,
            params.get("explain", ""),
            params.get("analyze", ""),
        )

    def from_body(self, body: dict) -> AggregateRequest:
        if not isinstance(body, dict):
            raise ApiRequestError("request body must be a JSON object")
        unknown = sorted(
            set(body)
            - {
                "drilldown", "cut", "cuts", "aggregate", "measures",
                "measure", "explain", "analyze",
            }
        )
        if unknown:
            raise ApiRequestError(f"unknown request keys {unknown}")
        drilldown_items = body.get("drilldown", [])
        if not isinstance(drilldown_items, list):
            raise ApiRequestError("'drilldown' must be a list")
        cut_items = body.get("cut", body.get("cuts", []))
        if not isinstance(cut_items, list):
            raise ApiRequestError("'cut' must be a list")
        measures_raw = body.get("measures", body.get("measure", []))
        if isinstance(measures_raw, str):
            measures_raw = [measures_raw]
        if not isinstance(measures_raw, list):
            raise ApiRequestError("'measures' must be a list or a string")
        aggregate = body.get("aggregate", "sum")
        if not isinstance(aggregate, str):
            raise ApiRequestError("'aggregate' must be a string")
        return self._finish(
            drilldown_items,
            cut_items,
            aggregate,
            tuple(measures_raw),
            body.get("explain", False),
            body.get("analyze", False),
        )


class ApiEndpoint:
    """The transport-independent request pipeline behind the server."""

    def __init__(self, engine, service, model: LogicalModel):
        self.engine = engine
        self.service = service
        self.model = model
        self.registry = registry = engine.db.metrics
        #: the introspection routes (``/metrics``, ``/healthz``, …)
        self.obs = ObservabilityRoutes(registry, service)
        #: the serving layer's flight recorder, shared so API-handler
        #: spans and the query spans below merge into one trace record
        self.traces = getattr(service, "traces", None)
        self.counters = Counters()
        registry.register("api:server", self.counters, replace=True)
        self._histograms = {
            name: registry.register_histogram(name, replace=True)
            for name in ("api.request_seconds", "api.routed_seconds", "api.base_seconds")
        }
        # every declared grain exists before the first request: a write
        # patches it, so only what a delta cannot follow costs a request
        # a build
        self.router = RollupRouter(engine, service, model)

    def close(self) -> None:
        """Take this endpoint's counters off the registry, unless a
        later endpoint's replaced them (the grains are the engine's,
        and stay)."""
        if self.registry.counters("api:server") is self.counters:
            self.registry.unregister("api:server")

    # -- tracing -------------------------------------------------------------

    def record_request_trace(
        self,
        ctx: TraceContext,
        *,
        method: str,
        path: str,
        status: int,
        latency_s: float,
        tracer: Tracer,
        route_source: str | None,
        error_kind: str | None,
    ) -> None:
        """Contribute the handler-side view of one request to the store.

        Client 4xx are ``ok`` traces (the request worked, the caller was
        wrong); 5xx and unmapped exceptions are errors, which the store
        evicts only after every ok trace.
        """
        if self.traces is None:
            return
        attrs: dict = {"method": method, "path": path, "http_status": status}
        if route_source is not None:
            attrs["route"] = route_source
        self.traces.record(
            ctx,
            name=f"{method} {path}",
            origin="api",
            status=(
                error_kind
                if error_kind is not None and status >= 500
                else ("ok" if status < 500 else f"http_{status}")
            ),
            latency_s=latency_s,
            roots=(
                [span_to_dict(root) for root in tracer.roots]
                if tracer.roots
                else None
            ),
            attrs=attrs,
        )

    # -- static payloads ----------------------------------------------------

    def info_payload(self) -> dict:
        return {
            "service": "repro-api",
            "cubes": self.model.cube_names(),
            "routes": [
                "/",
                "/cubes",
                "/cube/<name>/model",
                "/cube/<name>/aggregate",
                "/rollups",
                *(pattern for pattern, _ in ROUTES),
            ],
        }

    def rollup_stats_payload(self) -> dict:
        """The model's grain residency (``<cube>/<rollup>``: every
        aggregate rides in one entry).  ``grains`` stays a plain name →
        row-count map; the byte (``Σ column.nbytes``) breakdown rides in
        ``grain_stats``, and the grain store's counters in ``counters``.
        """
        stats = self.router.grain_stats()
        grains = {name: entry["rows"] for name, entry in stats.items()}
        return {
            "resident_entries": len(stats),
            "resident_rows": sum(grains.values()),
            "resident_bytes": sum(e["resident_bytes"] for e in stats.values()),
            "grains": grains,
            "grain_stats": stats,
            "counters": self.router.counters.snapshot(),
        }

    def cubes_payload(self) -> dict:
        return {"cubes": self.model.cube_names()}

    def cube_model_payload(self, name: str) -> dict:
        return self.model.cube(name).to_dict()

    # -- compilation ---------------------------------------------------------

    def base_query(self, request: AggregateRequest) -> ConsolidationQuery:
        """The base-cube consolidation equivalent to one API request."""
        selections = []
        for cut in request.cuts:
            if cut.is_range:
                selections.append(
                    SelectionPredicate.between(
                        cut.dimension, cut.attribute, cut.low, cut.high
                    )
                )
            else:
                selections.append(
                    SelectionPredicate.in_list(
                        cut.dimension, cut.attribute, *cut.values
                    )
                )
        return ConsolidationQuery.build(
            request.cube.cube,
            group_by=dict(request.drilldown),
            selections=selections,
            aggregate=request.aggregate,
            measures=list(request.measures),
        )

    # -- the aggregate pipeline ----------------------------------------------

    def aggregate(self, cube_name: str, request_of) -> tuple[int, dict]:
        """Answer one aggregate request; ``request_of(parser)`` builds
        the :class:`AggregateRequest` (param- or body-sourced)."""
        start = time.perf_counter()
        self.counters.add("api.aggregate_requests")
        ctx = current_trace_context()
        trace_id = ctx.trace_id if ctx is not None else None
        request = request_of(RequestParser(self.model.cube(cube_name)))
        query = self.base_query(request)
        plan = None
        if request.explain and request.analyze:
            # the analyzed run is the answer: it leaves it cached
            plan = self.service.explain(query, analyze=True)
            self.counters.add("api.explain_analyzes")
        result = self.service.execute(query)
        if request.explain and plan is None:
            # planned after the run, so it names the grain the run built
            plan = self.service.explain(query)
        if plan is not None:
            self.counters.add("api.explains")
        route = result.route or BASE_ROUTE
        if route["source"] == "rollup":
            self.counters.add("api.rollup_hits")
            histogram = "api.routed_seconds"
        else:
            if route["rollup"] is not None:
                # the chosen grain could not be built: this request paid
                # the base cost, the next miss tries the build again
                self.counters.add("api.stale_fallbacks")
            self.counters.add("api.base_fallbacks")
            histogram = "api.base_seconds"
        labels = [f"{d}.{a}" for d, a in request.drilldown] + list(request.measures)
        payload: dict = {
            "cube": request.cube.name,
            "aggregate": request.aggregate,
            "measures": list(request.measures),
            "drilldown": [list(pair) for pair in request.drilldown],
            "cuts": [cut.to_dict() for cut in request.cuts],
            "cells": [
                dict(zip(labels, row)) for row in sorted(result.rows)
            ],
            "cell_count": len(result.rows),
            "route": dict(route),
        }
        if plan is not None:
            payload["explain"] = plan.to_dict()
        payload["elapsed_s"] = time.perf_counter() - start
        self._histograms[histogram].observe(payload["elapsed_s"], trace_id=trace_id)
        self._histograms["api.request_seconds"].observe(
            payload["elapsed_s"], trace_id=trace_id
        )
        return 200, payload

    # -- error shaping -------------------------------------------------------

    def error_payload(self, exc: Exception) -> tuple[int, dict]:
        """Map one failure to ``(status, structured body)``."""
        if isinstance(exc, ApiError):
            self.counters.add("api.client_errors")
            return exc.status, {
                "error": {
                    "kind": exc.kind,
                    "message": str(exc),
                    "status": exc.status,
                }
            }
        if isinstance(exc, AdmissionError):
            self.counters.add("api.admission_rejections")
            return 429, {
                "error": {
                    "kind": "admission",
                    "message": str(exc),
                    "status": 429,
                }
            }
        if isinstance(exc, (TransientError, PermanentError)):
            # a degraded cube, an exhausted retry budget, a corrupt log
            # or a disk fault: the server's trouble, not the request's
            self.counters.add("api.degraded_rejections")
            return 503, {
                "error": {
                    "kind": "degraded",
                    "message": str(exc),
                    "status": 503,
                }
            }
        if isinstance(exc, ReproError):
            # engine-side validation of a compiled query (unknown
            # physical attribute, bad aggregate): the client's fault
            self.counters.add("api.client_errors")
            return 400, {
                "error": {
                    "kind": "query_error",
                    "message": str(exc),
                    "status": 400,
                }
            }
        self.counters.add("api.server_errors")
        return 500, {
            "error": {
                "kind": "internal",
                "message": f"{type(exc).__name__}: {exc}",
                "status": 500,
            }
        }


class ApiServer:
    """``ApiEndpoint`` behind a stdlib threading HTTP server — the only
    listener in ``src/``.

    Bind port 0 for an ephemeral port (:attr:`port` after
    :meth:`start`), serve from a daemon thread; ``stop()`` (or the
    context manager) shuts down cleanly and ``start()`` binds again.
    """

    def __init__(
        self,
        endpoint: ApiEndpoint,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.endpoint = endpoint
        self.host = host
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "ApiServer":
        if self._httpd is not None:
            return self
        endpoint = self.endpoint

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:
                # no per-request stderr line: each request's method,
                # path, status, latency and route are its trace record
                pass

            def _respond(
                self,
                status: int,
                payload,
                content_type: str | None,
                trace_id: str | None = None,
                allow: str | None = None,
            ) -> None:
                """Count and send one response; a ``None``
                ``content_type`` means ``payload`` is JSON-encoded, and a
                HEAD request gets the headers alone."""
                endpoint.counters.add(f"api.responses_{status // 100}xx")
                if content_type is None:
                    body = json.dumps(payload).encode("utf-8")
                    content_type = "application/json; charset=utf-8"
                else:
                    body = payload.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                if trace_id is not None:
                    self.send_header("X-Trace-Id", trace_id)
                if allow is not None:
                    self.send_header("Allow", allow)
                self.end_headers()
                if self.command != "HEAD":
                    self.wfile.write(body)

            def _params(self) -> dict[str, str]:
                parts = self.path.split("?", 1)
                if len(parts) != 2:
                    return {}
                from urllib.parse import parse_qsl

                pairs = parse_qsl(parts[1])
                params = dict(pairs)
                if len(params) != len(pairs):
                    # a second value would silently replace the first
                    # (a dropped cut answers a different question)
                    keys = [key for key, _ in pairs]
                    repeated = next(key for key in keys if keys.count(key) > 1)
                    raise ApiRequestError(
                        f"query parameter {repeated!r} is repeated; send "
                        "it once: '|' joins cuts, ',' joins drilldowns"
                    )
                return params

            def _read_body(self) -> dict:
                length_raw = self.headers.get("Content-Length", "0")
                try:
                    length = int(length_raw)
                except ValueError:
                    raise ApiRequestError(
                        f"bad Content-Length {length_raw!r}"
                    ) from None
                if length < 0:
                    # rfile.read(-1) would block until the client closes
                    raise ApiRequestError(
                        f"bad Content-Length {length_raw!r}"
                    )
                if length > MAX_BODY_BYTES:
                    raise ApiTooLargeError(
                        f"request body of {length} bytes exceeds the "
                        f"{MAX_BODY_BYTES}-byte cap"
                    )
                raw = self.rfile.read(length) if length else b""
                if not raw:
                    raise ApiRequestError("request body is empty")
                try:
                    return json.loads(raw)
                except ValueError as exc:
                    raise ApiRequestError(
                        f"request body is not JSON: {exc}"
                    ) from None

            def _dispatch(self, method: str) -> None:
                endpoint.counters.add("api.requests")
                path = self.path.split("?", 1)[0].rstrip("/") or "/"
                started = time.perf_counter()
                # /cube/… goes straight to the traced pipeline; any
                # other GET tries the introspection table first, before
                # a trace is minted: a poller's scrapes are never stored
                # and so cannot evict query traces from the recorder
                if method == "GET" and not path.startswith("/cube/"):
                    try:
                        served = endpoint.obs.handle(path, self._params())
                    except Exception as exc:  # noqa: BLE001 — mapped, never raised
                        served = (*endpoint.error_payload(exc), None)
                    if served is not None:
                        self._respond(*served)
                        return
                ctx = adopt_trace_id(
                    self.headers.get("X-Trace-Id"), origin="api"
                ) or new_trace_context(origin="api")
                tracer = Tracer(registry=endpoint.registry)
                error_kind: str | None = None
                with trace_context(ctx):
                    try:
                        with thread_tracing(tracer):
                            with tracer.span(
                                "api.request", method=method, path=path
                            ):
                                status, payload = self._route(method, path)
                    except Exception as exc:  # noqa: BLE001 — mapped, never raised
                        error_kind = type(exc).__name__
                        status, payload = endpoint.error_payload(exc)
                    latency_s = time.perf_counter() - started
                    payload.setdefault("trace_id", ctx.trace_id)
                    route = payload.get("route")
                    route_source = (
                        route.get("source") if isinstance(route, dict) else None
                    )
                    endpoint.record_request_trace(
                        ctx,
                        method=method,
                        path=path,
                        status=status,
                        latency_s=latency_s,
                        tracer=tracer,
                        route_source=route_source,
                        error_kind=error_kind,
                    )
                self._respond(status, payload, None, ctx.trace_id)

            def _route(self, method: str, path: str) -> tuple[int, dict]:
                if path == "/" and method == "GET":
                    return 200, endpoint.info_payload()
                if path == "/cubes" and method == "GET":
                    return 200, endpoint.cubes_payload()
                if path == "/rollups" and method == "GET":
                    return 200, endpoint.rollup_stats_payload()
                if path.startswith("/cube/"):
                    rest = path[len("/cube/") :]
                    name, _, action = rest.partition("/")
                    if action == "model" and method == "GET":
                        return 200, endpoint.cube_model_payload(name)
                    if action == "aggregate":
                        if method == "GET":
                            params = self._params()
                            return endpoint.aggregate(
                                name,
                                lambda parser: parser.from_params(params),
                            )
                        body = self._read_body()
                        return endpoint.aggregate(
                            name, lambda parser: parser.from_body(body)
                        )
                raise ApiNotFoundError(
                    f"unknown route {method} {path!r}; see / for routes"
                )

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                try:
                    self._dispatch("GET")
                except BrokenPipeError:  # pragma: no cover
                    pass

            def do_POST(self) -> None:  # noqa: N802 - http.server API
                try:
                    self._dispatch("POST")
                except BrokenPipeError:  # pragma: no cover
                    pass

            def _refuse_method(self) -> None:
                """Any other method: a structured 405 naming the two."""
                endpoint.counters.add("api.requests")
                status, payload = endpoint.error_payload(
                    ApiMethodError(
                        f"method {self.command} is not allowed; "
                        "the API serves GET and POST"
                    )
                )
                try:
                    self._respond(status, payload, None, allow="GET, POST")
                except BrokenPipeError:  # pragma: no cover
                    pass

            do_PUT = do_DELETE = do_PATCH = do_OPTIONS = do_HEAD = (
                _refuse_method
            )

        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-api-server",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "ApiServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
