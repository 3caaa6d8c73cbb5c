"""The introspection route table the API server mounts.

:data:`ROUTES` is the one list of what is served: ``(pattern, method)``
pairs, matched in order, where a trailing ``<name>`` in a pattern binds
the rest of the path as the method's argument.  ``ObservabilityRoutes``
holds the payload methods; it opens no socket — the listener is
:class:`repro.api.server.ApiServer`, which calls :meth:`handle` for
every ``GET`` outside ``/cube/…``.

A payload method returns its JSON body (``/metrics``: the Prometheus
text) or raises :class:`~repro.errors.ApiNotFoundError` when the part
it reads is not attached or the trace id is unknown.
Numeric query parameters are the keyword-only arguments of the method
that takes them (``/traces?limit=N``, ``/memory?top=N``); an
unparsable or non-finite one is an
:class:`~repro.errors.ApiRequestError`, any other query parameter is
ignored.  Everything is read-only.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import ApiNotFoundError, ApiRequestError
from repro.obs.exporters import prometheus_text
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.service import QueryService

#: every introspection route: ``(pattern, payload method)``, first match wins
ROUTES = (
    ("/metrics", "metrics_payload"),
    ("/healthz", "health_payload"),
    ("/traces", "traces_index_payload"),
    ("/trace/id/<trace_id>", "trace_by_id_payload"),
    ("/memory", "memory_payload"),
)


def _finite(name: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ApiRequestError(
            f"query parameter {name}={raw!r} must be a finite number"
        )
    return value


class ObservabilityRoutes:
    """The payload methods behind :data:`ROUTES`, over one registry and
    (optionally) one :class:`~repro.serve.service.QueryService`."""

    def __init__(
        self, registry: MetricsRegistry, service: "QueryService | None" = None
    ):
        self.registry = registry
        self.service = service

    def _part(self, name: str, label: str):
        """One of the service's parts, read at request time."""
        part = getattr(self.service, name, None)
        if part is None:
            raise ApiNotFoundError(f"no {label} attached")
        return part

    def handle(
        self, path: str, params: dict[str, str]
    ) -> tuple[int, object, str | None] | None:
        """``(status, payload, content_type)`` for one ``GET``; ``None``
        when no pattern matches.  ``content_type`` is ``None`` for JSON."""
        for pattern, method in ROUTES:
            head, placeholder, _ = pattern.partition("<")
            if not placeholder:
                if path != pattern:
                    continue
                args = ()
            elif path.startswith(head) and len(path) > len(head):
                args = (path[len(head) :],)
            else:
                continue
            payload_of = getattr(self, method)
            options = {
                name: _finite(name, params[name])
                for name in payload_of.__kwdefaults__ or ()
                if name in params
            }
            body = payload_of(*args, **options)
            if method == "metrics_payload":
                return 200, body, "text/plain; version=0.0.4; charset=utf-8"
            degraded = method == "health_payload" and body["status"] != "ok"
            return (503 if degraded else 200), body, None
        return None

    # -- route payloads ------------------------------------------------------

    def metrics_payload(self) -> str:
        """The Prometheus text for the current registry state."""
        return prometheus_text(self.registry)

    def health_payload(self) -> dict:
        """``/healthz``: ``ok``, or ``degraded`` (served as a 503)."""
        if self.service is None:
            return {"status": "ok", "service": "detached"}
        degraded = self.service.degraded_cubes()
        return {
            "status": "degraded" if degraded else "ok",
            "degraded_cubes": degraded,
            "in_flight": self.service.in_flight,
            "recoveries": self.service.counters.get("serve.recoveries"),
            "degradations": self.service.counters.get("serve.degradations"),
        }

    def traces_index_payload(self, *, limit: float = 50) -> dict:
        """``/traces``: the flight recorder's recent-trace index."""
        traces = self._part("traces", "trace store")
        return {
            "traces": traces.index(limit=max(1, int(limit))),
            "stored": len(traces),
            "capacity": traces.capacity,
            "counters": traces.counters.snapshot(),
        }

    def trace_by_id_payload(self, trace_id: str) -> dict:
        """``/trace/id/<trace_id>``: one full distributed trace, span
        trees and analyzed plans."""
        traces = self._part("traces", "trace store")
        record = traces.get(trace_id.strip().lower())
        if record is None:
            raise ApiNotFoundError(f"no trace with id {trace_id!r}")
        return record.to_dict()

    def memory_payload(self, *, top: float = 10) -> dict:
        """``/memory``: the resident-set breakdown by store."""
        memory = self._part("memory", "memory accountant")
        return memory.payload(top_n=max(1, int(top)))
