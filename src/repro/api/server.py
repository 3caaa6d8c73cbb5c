"""The HTTP query surface: slicer-style aggregate requests over stdlib.

``ApiEndpoint`` owns the request pipeline — parse and validate against
the logical model into a base-cube
:class:`~repro.olap.query.ConsolidationQuery` → answer it through the
:class:`~repro.serve.service.QueryService` → shape the JSON response —
and ``ApiServer`` puts it behind the one listener in the tree, a
:class:`ParkedHandlerServer`: each accepted connection is served by a
handler thread parked waiting for one, and a thread is started only
when none is idle.  Every answer is
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
- ``explain=1`` embeds the plan JSON (the schema of a trace record's
  ``plans``, ``benchmarks/schemas/explain_plan.schema.json``),
  ``analyze=1`` additionally binds actuals.

Every client mistake on any route maps to a structured 4xx body
``{"error": {"kind", "message", "status"}}`` — a 5xx from this module
is a bug.  A repeated query parameter is a 400 (``|`` joins cuts, ``,``
joins drilldowns), and any method but GET or POST a 405 with an
``Allow: GET, POST`` header.  The handler reads the request head off
the socket itself (:func:`read_head`): a malformed head is a 400, and
one past ``http.server``'s limits (a 65 536-byte line, 99 headers) a
414 or 431.  Each response goes out in one ``sendall``.
"""

from __future__ import annotations

import json
import queue
import re
import socket
import sys
import threading
import time
from dataclasses import dataclass
from email.utils import formatdate
from http import HTTPStatus
from http.server import HTTPServer
from socketserver import BaseRequestHandler
from urllib.parse import parse_qsl

from repro.api.model import LogicalCube, LogicalModel
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
from repro.olap.grains import GRAIN_AGGREGATES
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

#: how a failure is answered: ``(class, status, kind, counter)``, the
#: first row it is an instance of wins; an :class:`ApiError` carries
#: its own status and kind
ERROR_SHAPES = (
    (ApiError, None, None, "api.client_errors"),
    (AdmissionError, 429, "admission", "api.admission_rejections"),
    # a degraded cube, an exhausted retry budget, a corrupt log or a
    # disk fault: the server's trouble, not the request's
    ((TransientError, PermanentError), 503, "degraded", "api.degraded_rejections"),
    # engine-side validation of a compiled query (unknown physical
    # attribute, bad aggregate): the client's fault
    (ReproError, 400, "query_error", "api.client_errors"),
    (Exception, 500, "internal", "api.server_errors"),
)


@dataclass(frozen=True)
class AggregateRequest:
    """One validated aggregate request: the base-cube query it asks
    against a logical cube, and whether to explain it."""

    cube: LogicalCube
    query: ConsolidationQuery
    explain: bool = False
    analyze: bool = False


def _cut_payload(cut: SelectionPredicate) -> dict:
    """A cut as the request surface names it (and the response echoes
    it): ``{"dimension", "level", "values" | "range"}``."""
    payload: dict = {"dimension": cut.dimension, "level": cut.attribute}
    if cut.is_range:
        payload["range"] = [cut.low, cut.high]
    else:
        payload["values"] = list(cut.values)
    return payload


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

    def cut_item(self, raw) -> SelectionPredicate:
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
            return SelectionPredicate.between(dimension, attr, low, high)
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
        return SelectionPredicate.in_list(dimension, attr, *values)

    def _cut_from_object(self, raw: dict) -> SelectionPredicate:
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
            return SelectionPredicate.in_list(dimension, attr, *values)
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
            return SelectionPredicate.between(dimension, attr, low, high)
        raise ApiRequestError(
            f"cut object needs 'values' or 'range': {raw!r}"
        )

    def cuts(self, items) -> tuple[SelectionPredicate, ...]:
        if len(items) > MAX_CUT_ITEMS:
            raise ApiRequestError(
                f"{len(items)} cuts exceed the cap of {MAX_CUT_ITEMS}"
            )
        return tuple(self.cut_item(item) for item in items)

    # -- whole requests ----------------------------------------------------

    def _finish(
        self, drilldown_items, cut_items, aggregate, measures, explain, analyze
    ) -> AggregateRequest:
        if aggregate not in GRAIN_AGGREGATES:
            raise ApiRequestError(
                f"unknown aggregate {aggregate!r}; "
                f"expected one of {list(GRAIN_AGGREGATES)}"
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
        query = ConsolidationQuery(
            cube=self.cube.cube,
            group_by=drilldown,
            selections=self.cuts(cut_items),
            aggregate=aggregate,
            measures=tuple(measures),
        )
        return AggregateRequest(
            self.cube, query, _truthy(explain), _truthy(analyze)
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
        self._source = registry.register("api:server", self.counters)
        self._histograms = {
            name: registry.register_histogram(name)
            for name in ("api.request_seconds", "api.routed_seconds", "api.base_seconds")
        }
        # every declared grain exists before the first request: a write
        # patches it, so only what a delta cannot follow costs a request
        # a build
        self.router = RollupRouter(engine, service, model)

    def close(self) -> None:
        """Take this endpoint's counters off the registry (the grains
        are the engine's, and stay)."""
        self.registry.unregister(self._source)

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

    # -- the aggregate pipeline ----------------------------------------------

    def aggregate(self, cube_name: str, request_of) -> tuple[int, dict]:
        """Answer one aggregate request; ``request_of(parser)`` builds
        the :class:`AggregateRequest` (param- or body-sourced)."""
        start = time.perf_counter()
        self.counters.add("api.aggregate_requests")
        ctx = current_trace_context()
        trace_id = ctx.trace_id if ctx is not None else None
        request = request_of(RequestParser(self.model.cube(cube_name)))
        query = request.query
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
        labels = [f"{d}.{a}" for d, a in query.group_by] + list(query.measures)
        payload: dict = {
            "cube": request.cube.name,
            "aggregate": query.aggregate,
            "measures": list(query.measures),
            "drilldown": [list(pair) for pair in query.group_by],
            "cuts": [_cut_payload(cut) for cut in query.selections],
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
        for classes, status, kind, counter in ERROR_SHAPES:
            if isinstance(exc, classes):
                break
        self.counters.add(counter)
        if kind is None:
            status, kind = exc.status, exc.kind
        message = f"{type(exc).__name__}: {exc}" if kind == "internal" else str(exc)
        return status, {"error": {"kind": kind, "message": message, "status": status}}


#: the limits ``http.server`` puts on a request head (``http.client``'s
#: ``_MAXLINE`` and ``_MAXHEADERS``): a line, its line ending included,
#: past the first is a 414 on the request line and a 431 on a header
#: line; the header lines plus the blank line (or end of stream) that
#: ends them past the second is a 431, so a head holds at most 99 headers
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100
#: the most bytes a connection reads looking for the end of its head: a
#: head this long breaks one of the limits above
MAX_HEAD_BYTES = (MAX_HEADERS + 1) * (MAX_LINE_BYTES + 2)
#: what one ``recv`` asks for (the buffer http.server read through): a
#: whole head, and most bodies, at once
RECV_BYTES = 8192

_VERSION = re.compile(r"HTTP/1\.[0-9]+")
_REASONS = {status.value: status.phrase for status in HTTPStatus}
#: the ``Server`` header ``http.server`` sent, kept byte for byte
_SERVER = f"BaseHTTP/0.6 Python/{sys.version.split()[0]}"


@dataclass
class RequestHead:
    """One request's head as :func:`read_head` reads it off a socket:
    the request line's method and target, the headers by lower-cased
    name (the first of a repeated name wins), and the bytes that came
    after the head (the start of a body)."""

    method: str
    target: str
    headers: dict[str, str]
    rest: bytes


def _head_end(buf, start: int = 0) -> tuple[int, int] | None:
    """``(end of the head's last line, start of body)``: the head ends
    at its first blank line, ``\r\n`` or a bare ``\n``."""
    crlf = buf.find(b"\n\r\n", start)
    lf = buf.find(b"\n\n", start, None if crlf < 0 else crlf)
    if lf >= 0:
        return lf + 1, lf + 2
    if crlf >= 0:
        return crlf + 1, crlf + 3
    return None


def _receive_head(sock) -> tuple[bytes, bytes] | None:
    """``(head, rest)`` off the socket, ``None`` if the client sent
    nothing.  The head's lines keep their line endings.  A head the
    client stops sending, or one that reaches ``MAX_HEAD_BYTES``, is
    what arrived; :func:`read_head` judges it against the limits."""
    buf = sock.recv(RECV_BYTES)
    end = _head_end(buf)
    if end is not None:  # the usual case: the whole head in one read
        return buf[: end[0]], buf[end[1] :]
    if not buf:
        return None
    buf = bytearray(buf)
    while len(buf) <= MAX_HEAD_BYTES:
        data = sock.recv(RECV_BYTES)
        if not data:
            break
        searched = max(len(buf) - 2, 0)
        buf += data
        end = _head_end(buf, searched)
        if end is not None:
            return bytes(buf[: end[0]]), bytes(buf[end[1] :])
    return bytes(buf), b""


def read_head(sock) -> RequestHead | None:
    """Read and parse one request head; ``None`` if the client sent
    nothing.  A head past the limits is an :class:`ApiTooLargeError`
    (414 or 431), a malformed one an :class:`ApiRequestError`."""
    received = _receive_head(sock)
    if received is None:
        return None
    head, rest = received
    lines = head.decode("latin-1").split("\n")
    if len(head) > MAX_LINE_BYTES:
        ended = head.endswith(b"\n")
        for i, line in enumerate(lines):
            # the "\n" split off counts, as in http.server's readline
            if len(line) + (ended or i < len(lines) - 1) > MAX_LINE_BYTES:
                what = "request" if i == 0 else "header"
                raise ApiTooLargeError(
                    f"{what} line exceeds {MAX_LINE_BYTES} bytes",
                    status=414 if i == 0 else 431,
                )
    if not lines[-1]:
        lines.pop()  # what follows the last line's "\n"
    # the request line stands in for the blank line that http.client
    # counts among the headers
    if len(lines) > MAX_HEADERS:
        raise ApiTooLargeError(f"more than {MAX_HEADERS - 1} headers", status=431)
    words = lines[0].split()
    if len(words) != 3:
        raise ApiRequestError(
            f"bad request line {lines[0].rstrip()[:200]!r}; expected "
            "'METHOD target HTTP/1.x'"
        )
    method, target, version = words
    if not _VERSION.fullmatch(version):
        raise ApiRequestError(f"unsupported HTTP version {version[:20]!r}")
    if target.startswith("//"):  # as http.server reads it: one leading /
        target = "/" + target.lstrip("/")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if not colon or not name or name[0] in " \t" or name[-1] in " \t":
            raise ApiRequestError(f"malformed header line {line[:200]!r}")
        key, value = name.lower(), value.strip()
        if headers.setdefault(key, value) != value and key == "content-length":
            raise ApiRequestError("the request has two different Content-Length values")
    return RequestHead(method, target, headers, rest)


def read_body(sock, head: RequestHead) -> bytes:
    """The ``Content-Length`` bytes of the request's body: what came
    with the head, then further reads.  The length is checked first."""
    length_raw = head.headers.get("content-length", "0")
    try:
        length = int(length_raw)
    except ValueError:
        raise ApiRequestError(f"bad Content-Length {length_raw!r}") from None
    if length < 0:
        raise ApiRequestError(f"bad Content-Length {length_raw!r}")
    if length > MAX_BODY_BYTES:
        raise ApiTooLargeError(
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte cap"
        )
    if not length:
        raise ApiRequestError("request body is empty")
    body = head.rest[:length]
    if len(body) < length:
        parts = [body]
        missing = length - len(body)
        while missing:
            data = sock.recv(min(missing, RECV_BYTES))
            if not data:
                raise ApiRequestError(
                    f"request body ended after {length - missing} of "
                    f"{length} bytes"
                )
            parts.append(data)
            missing -= len(data)
        body = b"".join(parts)
    return body


def response_bytes(
    status: int,
    body: bytes,
    content_type: str,
    trace_id: str | None = None,
    allow: str | None = None,
    head_only: bool = False,
) -> bytes:
    """One whole response: status line, the headers ``http.server``
    sent (``Server``, ``Date``) and ours, and the body."""
    head = (
        f"HTTP/1.0 {status} {_REASONS.get(status, '')}\r\n"
        f"Server: {_SERVER}\r\nDate: {formatdate(usegmt=True)}\r\n"
        f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
    )
    if trace_id is not None:
        head += f"X-Trace-Id: {trace_id}\r\n"
    if allow is not None:
        head += f"Allow: {allow}\r\n"
    head = (head + "\r\n").encode("latin-1")
    return head if head_only else head + body


class ParkedHandlerServer(HTTPServer):
    """An HTTP server whose connections are served by parked threads.

    :meth:`process_request` hands an accepted connection to a handler
    thread parked on the work queue when one is idle, and starts a
    handler only when none is.  After its connection a handler parks
    again, unless ``max_parked`` handlers already wait or the server is
    closing: then it exits.  So concurrent connections are still served
    in parallel, one thread each, and a sequential client pays no thread
    start-up.  :meth:`serve` accepts with a blocking ``accept``, which
    :meth:`shutdown` ends at once by shutting the listening socket down.
    :meth:`server_close` cuts the read side of every open connection (a
    client that never sends reads as closed; a response still being
    written goes out), releases every parked handler and joins every
    handler.
    """

    def __init__(self, address, handler_class, max_parked: int):
        super().__init__(address, handler_class)
        self.max_parked = max_parked
        self._work: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._parked = 0
        self._closing = False
        self._handlers: set[threading.Thread] = set()
        self._open: set[socket.socket] = set()

    def serve(self) -> None:
        """Accept connections until :meth:`shutdown`."""
        while True:
            try:
                request, client_address = self.socket.accept()
            except OSError:
                if self._closing:
                    return
                continue  # a failed accept (a reset connection, no free descriptor)
            try:
                self.process_request(request, client_address)
            except Exception:  # noqa: BLE001 — socketserver's contract
                self.handle_error(request, client_address)
                self.shutdown_request(request)

    def shutdown(self) -> None:
        """End :meth:`serve` without waiting out a poll: its blocked
        ``accept`` fails as soon as the listening socket is shut down."""
        with self._lock:
            self._closing = True
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never listened, or shut already

    def process_request(self, request, client_address) -> None:
        with self._lock:
            self._open.add(request)
            if self._parked:
                self._parked -= 1
                self._work.put((request, client_address))
                return
            thread = threading.Thread(
                target=self._handle,
                args=(request, client_address),
                name="repro-api-handler",
                daemon=True,
            )
            self._handlers.add(thread)
        try:
            thread.start()
        except BaseException:
            with self._lock:
                self._handlers.discard(thread)
                self._open.discard(request)
            raise

    def _handle(self, request, client_address) -> None:
        """Serve connections until told to exit (``None``) or not parked."""
        try:
            while True:
                try:
                    self.finish_request(request, client_address)
                except Exception:  # noqa: BLE001 — socketserver's contract
                    self.handle_error(request, client_address)
                with self._lock:
                    self._open.discard(request)
                    park = not self._closing and self._parked < self.max_parked
                    if park:
                        self._parked += 1
                # parked before the client sees its connection close, so
                # the client's next connection finds this thread idle
                self.shutdown_request(request)
                if not park:
                    return
                work = self._work.get()
                if work is None:
                    return
                request, client_address = work
        finally:
            with self._lock:
                self._handlers.discard(threading.current_thread())

    def server_close(self) -> None:
        super().server_close()
        with self._lock:
            self._closing = True
            parked, self._parked = self._parked, 0
            handlers = list(self._handlers)
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the client is gone already
        for _ in range(parked):
            self._work.put(None)
        for thread in handlers:
            thread.join()


class ApiServer:
    """``ApiEndpoint`` behind a :class:`ParkedHandlerServer` — the only
    listener in ``src/``.

    Bind port 0 for an ephemeral port (:attr:`port` after
    :meth:`start`), accept from a daemon thread; at most the service's
    ``max_workers`` idle handlers stay parked.  ``stop()`` (or the
    context manager) shuts down cleanly — a request in flight is
    answered, and no thread the server started outlives it — and
    ``start()`` binds again.
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
        self._httpd: ParkedHandlerServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "ApiServer":
        if self._httpd is not None:
            return self
        endpoint = self.endpoint

        class Handler(BaseRequestHandler):
            """One connection: one request read off the socket and one
            response written to it in one ``sendall``."""

            method: str | None = None

            def handle(self) -> None:
                try:
                    self._serve()
                except ConnectionError:
                    pass  # the client went away: there is no one to answer

            def _serve(self) -> None:
                try:
                    head = read_head(self.request)
                except ApiError as exc:  # a head past the limits, or malformed
                    endpoint.counters.add("api.requests")
                    self._respond(*endpoint.error_payload(exc), None)
                    return
                if head is None:
                    return  # the client sent nothing
                self.head, self.method = head, head.method
                if head.method in ("GET", "POST"):
                    self._dispatch(head.method)
                else:
                    self._refuse_method()

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
                else:
                    body = payload.encode("utf-8")
                self.request.sendall(
                    response_bytes(
                        status,
                        body,
                        content_type or "application/json; charset=utf-8",
                        trace_id,
                        allow,
                        head_only=self.method == "HEAD",
                    )
                )

            def _params(self) -> dict[str, str]:
                parts = self.head.target.split("?", 1)
                if len(parts) != 2:
                    return {}
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
                raw = read_body(self.request, self.head)
                try:
                    return json.loads(raw)
                except ValueError as exc:
                    raise ApiRequestError(
                        f"request body is not JSON: {exc}"
                    ) from None

            def _dispatch(self, method: str) -> None:
                endpoint.counters.add("api.requests")
                path = self.head.target.split("?", 1)[0].rstrip("/") or "/"
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
                    self.head.headers.get("x-trace-id"), origin="api"
                ) or new_trace_context(origin="api")
                tracer = Tracer()
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

            def _refuse_method(self) -> None:
                """Any other method: a structured 405 naming the two."""
                endpoint.counters.add("api.requests")
                status, payload = endpoint.error_payload(
                    ApiMethodError(
                        f"method {self.method} is not allowed; "
                        "the API serves GET and POST"
                    )
                )
                self._respond(status, payload, None, allow="GET, POST")

        self._httpd = ParkedHandlerServer(
            (self.host, self._requested_port),
            Handler,
            max_parked=endpoint.service.config.max_workers,
        )
        self._thread = threading.Thread(
            target=self._httpd.serve,
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
        # the accept loop ends first, so no connection arrives after
        # server_close has counted the handlers it joins
        self._thread.join()
        self._httpd.server_close()
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "ApiServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
