"""Distributed trace context and the flight-recorder trace store.

The span :class:`~repro.obs.tracer.Tracer` from the observability core
is strictly in-process: each tracer records one tree and the active
tracer is a thread-local.  This module adds the *cross-domain* layer —
Dapper-style identity that survives thread pools and process shard
workers:

- :class:`TraceContext` is the propagated identity: a 128-bit
  ``trace_id`` plus a 64-bit ``span_id``/``parent_span_id`` pair.
  Contexts are minted at every entry point (an API request,
  ``QueryService.query``, a CLI run), carried across threads
  explicitly (capture at submit, install in the worker via
  :class:`trace_context`) and across processes as a plain dict inside
  the shard task payload.
- :class:`TraceStore` is the flight recorder, each request's one
  record: a bounded, thread-safe ring keyed by trace_id.  Every trace
  is stored; slow and errored ones are evicted only after every fast
  one, so their evidence outlives any amount of fast traffic.  Several
  layers (API handler, query service) contribute spans to the same
  trace_id and the store merges them into one record; a rollup grain a
  request had to rebuild is a ``rollup.build`` span in it.
"""

from __future__ import annotations

import os
import re
import threading
import time
from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.obs.memory import SizedStore, deep_sizeof

_TRACE_ID_RE = re.compile(r"^[0-9a-f]{32}$")

#: span trees one trace record keeps.  An API request contributes one
#: or two, so only a client that reuses one ``X-Trace-Id`` on every
#: request reaches it; later contributions still merge their status,
#: latency and attrs, but their roots are dropped and counted
#: (``traces.roots_dropped``), so that client cannot grow one record
#: without bound.
MAX_ROOTS_PER_TRACE = 32


def _hex_id(n_bytes: int) -> str:
    return os.urandom(n_bytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of one logical request.

    ``trace_id`` is 128-bit (32 hex chars) and names the whole request;
    ``span_id`` is 64-bit and names the minting site's own span within
    it; ``parent_span_id`` is the minter's parent (``None`` at an entry
    point).  The frozen dataclass is picklable as-is, but process
    boundaries ship the explicit :meth:`to_dict` form so worker task
    payloads stay plain dicts.
    """

    trace_id: str
    span_id: str
    parent_span_id: str | None = None
    origin: str = ""

    def child(self, origin: str | None = None) -> "TraceContext":
        """A new context one hop down: same trace, fresh span identity."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_hex_id(8),
            parent_span_id=self.span_id,
            origin=self.origin if origin is None else origin,
        )

    def to_dict(self) -> dict:
        """A plain-dict form for task payloads and JSON bodies."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "origin": self.origin,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceContext":
        """Rebuild a context from :meth:`to_dict` output."""
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_span_id=payload.get("parent_span_id"),
            origin=str(payload.get("origin", "")),
        )


def new_trace_context(origin: str = "") -> TraceContext:
    """Mint a fresh root context (new 128-bit trace, no parent)."""
    return TraceContext(
        trace_id=_hex_id(16),
        span_id=_hex_id(8),
        parent_span_id=None,
        origin=origin,
    )


def adopt_trace_id(
    trace_id: str | None, origin: str = ""
) -> TraceContext | None:
    """Adopt an inbound ``X-Trace-Id`` header value, if well-formed.

    A caller that sends an id is asking to find the trace later under
    it.  Malformed ids are rejected (``None``) rather than propagated,
    so a garbage header cannot pollute the store keyspace.
    """
    if trace_id is None:
        return None
    candidate = trace_id.strip().lower()
    if not _TRACE_ID_RE.match(candidate):
        return None
    return TraceContext(
        trace_id=candidate,
        span_id=_hex_id(8),
        parent_span_id=None,
        origin=origin,
    )


# -- thread-local propagation -------------------------------------------------

_thread_state = threading.local()


def current_trace_context() -> TraceContext | None:
    """The context installed on this thread, or ``None``."""
    return getattr(_thread_state, "context", None)


class trace_context:
    """Install a :class:`TraceContext` on this thread for a ``with`` block.

    Mirrors :class:`~repro.obs.tracer.thread_tracing`: the serving
    pool's worker threads install the submitting request's context so
    everything below (engine, scatter) can read it without threading a
    parameter through every signature.
    """

    def __init__(self, context: TraceContext | None):
        self.context = context
        self._previous: TraceContext | None = None

    def __enter__(self) -> TraceContext | None:
        self._previous = getattr(_thread_state, "context", None)
        _thread_state.context = self.context
        return self.context

    def __exit__(self, *exc_info: object) -> None:
        _thread_state.context = self._previous


# -- the flight recorder ------------------------------------------------------


@dataclass
class TraceRecord:
    """One stored trace: identity, outcome, span trees."""

    trace_id: str
    origin: str = ""
    name: str = ""
    status: str = "ok"
    latency_s: float = 0.0
    started_at: float = 0.0
    attrs: dict = field(default_factory=dict)
    roots: list = field(default_factory=list)

    def span_count(self) -> int:
        """Total spans across every stored root tree."""

        def count(node: dict) -> int:
            return 1 + sum(count(c) for c in node.get("children", ()))

        return sum(count(root) for root in self.roots)

    def to_dict(self) -> dict:
        """The full JSON payload ``/trace/id/<trace_id>`` serves."""
        return {
            "trace_id": self.trace_id,
            "origin": self.origin,
            "name": self.name,
            "status": self.status,
            "latency_s": self.latency_s,
            "started_at": self.started_at,
            "attrs": dict(self.attrs),
            "spans": self.span_count(),
            "roots": self.roots,
        }

    def summary(self) -> dict:
        """The compact form the ``/traces`` index lists."""
        return {
            "trace_id": self.trace_id,
            "origin": self.origin,
            "name": self.name,
            "status": self.status,
            "latency_s": self.latency_s,
            "started_at": self.started_at,
            "spans": self.span_count(),
        }


class TraceStore(SizedStore):
    """A bounded, thread-safe ring of recent traces keyed by trace_id.

    The flight-recorder contract: every contribution is stored, and the
    store's one policy is which trace leaves.  A trace is *kept*
    (:meth:`kept`) when it ran at least ``slow_threshold_s`` or its
    status is an error; at the count cap and under :meth:`reclaim` the
    victim is the oldest trace that is not kept, and the oldest kept
    one only when nothing else is left.  A contribution refreshes the
    trace's recency; reading it does not.
    """

    _evict_counter = "traces.evicted"

    def __init__(self, capacity: int = 256, slow_threshold_s: float = 0.25):
        super().__init__(capacity)
        self.slow_threshold_s = slow_threshold_s

    def kept(self, record: TraceRecord) -> bool:
        """Whether ``record`` outlives every fast, ok trace."""
        return (
            record.latency_s >= self.slow_threshold_s
            or record.status not in ("ok", "")
        )

    def _victim(self, spare: Hashable | None) -> Hashable:
        oldest_kept = None
        for key, record in self._entries.items():
            if key == spare:
                continue
            if not self.kept(record):
                return key
            if oldest_kept is None:
                oldest_kept = key
        return oldest_kept

    # -- recording -----------------------------------------------------------

    def record(
        self,
        context: TraceContext,
        *,
        name: str = "",
        origin: str | None = None,
        status: str = "ok",
        latency_s: float = 0.0,
        roots: list | None = None,
        attrs: dict | None = None,
    ) -> None:
        """Store (or merge into) the trace for ``context``.

        ``roots`` is a list of serialized span trees
        (:func:`~repro.obs.exporters.span_to_dict` form); a record keeps
        at most :data:`MAX_ROOTS_PER_TRACE` of them.  The merge is one
        growth step: the pressure hook fires once, after the lock is
        released.

        Byte accounting is *incremental*: each contributing write adds
        the measured size of what it appended (span trees, attrs that
        bring a new key), so a merge never re-walks the whole
        record — deep measurement of the bulky span trees happens
        outside the store lock, on the writer's thread.
        """
        error = status not in ("ok", "")
        root_bytes = [deep_sizeof(root) for root in roots or ()]
        attrs_bytes = deep_sizeof(attrs) if attrs else 0
        trace_id = context.trace_id
        with self._lock:
            # a contributor refreshes recency, so a trace still being
            # assembled is not evicted under its writers
            record = super().get(trace_id)
            if record is None:
                record = TraceRecord(
                    trace_id=trace_id,
                    origin=origin or context.origin,
                    name=name,
                    started_at=time.time(),
                )
                # the empty record's fixed skeleton; contributions
                # below are charged from the pre-measured deltas
                self._put(trace_id, record, deep_sizeof(record))
                self.counters.add("traces.stored")
            else:
                self.counters.add("traces.merged")
            if name and not record.name:
                record.name = name
            if origin and not record.origin:
                record.origin = origin
            if error or record.status in ("ok", ""):
                record.status = status
            record.latency_s = max(record.latency_s, latency_s)
            grown = 0
            if attrs:
                if not attrs.keys() <= record.attrs.keys():
                    grown += attrs_bytes
                record.attrs.update(attrs)
            if roots:
                room = max(0, MAX_ROOTS_PER_TRACE - len(record.roots))
                record.roots.extend(roots[:room])
                grown += sum(root_bytes[:room])
                if len(roots) > room:
                    self.counters.add("traces.roots_dropped", len(roots) - room)
            self._grow(trace_id, grown)
        self._grew()

    # -- reading -------------------------------------------------------------

    def get(  # type: ignore[override]
        self, trace_id: str
    ) -> TraceRecord | None:
        """The resident record for ``trace_id`` (recency untouched), or
        ``None``."""
        return self.peek(trace_id)

    def index(self, limit: int = 50) -> list[dict]:
        """Summaries of the most recent traces, newest first."""
        records = self.values()
        return [record.summary() for record in reversed(records[-limit:])]
