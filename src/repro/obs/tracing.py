"""Request trace context and the flight-recorder trace store.

The span :class:`~repro.obs.tracer.Tracer` from the observability core
is strictly in-process: each tracer records one tree and the active
tracer is a thread-local.  This module adds the request-level layer —
one identity shared by every layer a request passes through:

- :class:`TraceContext` is the propagated identity: a 128-bit
  ``trace_id`` and the entry point that minted it.  Contexts are
  minted at every entry point (an API request,
  ``QueryService.execute``, a CLI run) and installed on the thread
  that runs the request with :class:`trace_context`; a thread hop
  carries it explicitly (capture, then install in the worker).
- :class:`TraceStore` is the flight recorder, each request's one
  record: a bounded, thread-safe ring keyed by trace_id.  Every trace
  is stored; slow and errored ones are evicted only after every fast
  one, so their evidence outlives any amount of fast traffic.  Several
  layers (API handler, query service) contribute spans to the same
  trace_id and the store merges them into one record; a rollup grain a
  request had to rebuild is a ``rollup.build`` span in it, and a slow
  engine miss's analyzed plan is in its ``plans``, so the plan lives
  exactly as long as the trace it explains.
"""

from __future__ import annotations

import os
import re
import sys
import threading
import time
from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.obs.memory import SizedStore, tree_bytes

_TRACE_ID_RE = re.compile(r"^[0-9a-f]{32}$")

#: span trees (and, separately, analyzed plans) one trace record
#: keeps.  An API request contributes one or two, so only a client that
#: reuses one ``X-Trace-Id`` on every request reaches it; later
#: contributions still merge their status, latency and attrs, but their
#: roots and plans are dropped and counted (``traces.roots_dropped``,
#: ``traces.plans_dropped``), so that client cannot grow one record
#: without bound.
MAX_ROOTS_PER_TRACE = 32


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of one logical request.

    ``trace_id`` is 128-bit (32 hex chars) and names the whole request;
    ``origin`` names the entry point that minted it.
    """

    trace_id: str
    origin: str = ""


def new_trace_context(origin: str = "") -> TraceContext:
    """Mint a fresh root context (new 128-bit trace)."""
    return TraceContext(trace_id=os.urandom(16).hex(), origin=origin)


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
    return TraceContext(trace_id=candidate, origin=origin)


# -- thread-local propagation -------------------------------------------------

_thread_state = threading.local()


def current_trace_context() -> TraceContext | None:
    """The context installed on this thread, or ``None``."""
    return getattr(_thread_state, "context", None)


class trace_context:
    """Install a :class:`TraceContext` on this thread for a ``with`` block.

    Mirrors :class:`~repro.obs.tracer.thread_tracing`: a request's
    handler (or the service, minting one) installs its context so
    everything below (service, engine) can read it without threading a
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
    """One stored trace: identity, outcome, span trees, and the
    analyzed-plan payloads (:meth:`QueryPlan.to_dict
    <repro.obs.explain.QueryPlan.to_dict>`) its slow misses left."""

    trace_id: str
    origin: str = ""
    name: str = ""
    status: str = "ok"
    latency_s: float = 0.0
    started_at: float = 0.0
    attrs: dict = field(default_factory=dict)
    roots: list = field(default_factory=list)
    plans: list = field(default_factory=list)

    def span_count(self) -> int:
        """Total spans across every stored root tree."""

        def count(node: dict) -> int:
            return 1 + sum(count(c) for c in node.get("children", ()))

        return sum(count(root) for root in self.roots)

    def to_dict(self) -> dict:
        """The full JSON payload ``/trace/id/<trace_id>`` serves: every
        field, and the span count."""
        return {**vars(self), "attrs": dict(self.attrs), "spans": self.span_count()}

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


#: a record's field table: a key-sharing instance dict, whose own
#: ``sys.getsizeof`` drifts with how many records share its keys
_FIELD_TABLE_BYTES = 288


def _skeleton_bytes(record: TraceRecord) -> int:
    """A record's own object, field table and field values, each value
    charged ``sys.getsizeof`` without descending."""
    return (
        sys.getsizeof(record)
        + _FIELD_TABLE_BYTES
        + sum(sys.getsizeof(value) for value in vars(record).values())
    )


def _merge_attrs(into: dict, attrs: dict) -> int:
    """Merge ``attrs`` into a record's ``into``; the bytes it grew by.

    A new entry is charged its key and value, a replaced value the
    difference from the old one, and the dict its table's growth — each
    ``sys.getsizeof``, without descending into a value.
    """
    grown = -sys.getsizeof(into)
    for key, value in attrs.items():
        if key in into:
            grown -= sys.getsizeof(into[key])
        else:
            grown += sys.getsizeof(key)
        grown += sys.getsizeof(value)
        into[key] = value
    return grown + sys.getsizeof(into)


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
        plans: list | None = None,
        attrs: dict | None = None,
    ) -> None:
        """Store (or merge into) the trace for ``context``.

        ``roots`` is a list of serialized span trees
        (:func:`~repro.obs.exporters.span_to_dict` form) and ``plans`` a
        list of analyzed-plan payloads; a record keeps at most
        :data:`MAX_ROOTS_PER_TRACE` of each.  The merge is one growth
        step: the pressure hook fires once, after the lock is released.

        Byte accounting is *incremental* and reads shapes, not values:
        a new record is charged its skeleton (:func:`_skeleton_bytes`),
        each span tree and plan it keeps
        :func:`~repro.obs.memory.tree_bytes` (charged outside the store
        lock, on the writer's thread), and an attrs merge only what it
        adds or replaces (:func:`_merge_attrs`), so a merge never
        re-walks the record.
        """
        error = status not in ("ok", "")
        root_bytes = [tree_bytes(root) for root in roots or ()]
        plan_bytes = [tree_bytes(plan) for plan in plans or ()]
        trace_id = context.trace_id
        with self._lock:
            # a contributor refreshes recency, so a trace still being
            # assembled is not evicted under its writers
            record = super().get(trace_id)
            if record is None:
                record = TraceRecord(
                    trace_id=trace_id,
                    origin=context.origin or origin,
                    name=name,
                    started_at=time.time(),
                )
                # the empty record's fixed skeleton; contributions
                # below are charged as they merge
                self._put(trace_id, record, _skeleton_bytes(record))
                self.counters.add("traces.stored")
            else:
                self.counters.add("traces.merged")
            # the entry point that minted the trace names it, whoever
            # contributed first (an API request's queries run before it
            # records its own view)
            if name and (not record.name or origin == record.origin):
                record.name = name
            if origin and not record.origin:
                record.origin = origin
            if error or record.status in ("ok", ""):
                record.status = status
            record.latency_s = max(record.latency_s, latency_s)
            grown = 0
            if attrs:
                grown += _merge_attrs(record.attrs, attrs)
            if roots:
                grown += self._extend_capped(
                    record.roots, roots, root_bytes, "traces.roots_dropped"
                )
            if plans:
                grown += self._extend_capped(
                    record.plans, plans, plan_bytes, "traces.plans_dropped"
                )
            self._grow(trace_id, grown)
        self._grew()

    def _extend_capped(
        self, into: list, items: list, sizes: list[int], counter: str
    ) -> int:
        """Append to a record's ``into`` what fits under
        :data:`MAX_ROOTS_PER_TRACE`, counting the rest under
        ``counter``; the bytes it grew by (the list's growth plus each
        kept item's ``sizes`` charge)."""
        room = max(0, MAX_ROOTS_PER_TRACE - len(into))
        grown = -sys.getsizeof(into)
        into.extend(items[:room])
        if len(items) > room:
            self.counters.add(counter, len(items) - room)
        return grown + sys.getsizeof(into) + sum(sizes[:room])

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
