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


#: what every record is charged whatever it holds, computed once: the
#: record object, its field table (a key-sharing instance dict whose
#: ``sys.getsizeof`` drifts with how many records share its keys: 288 B,
#: its size once two records do), the 32-char trace id, the two floats,
#: the attrs dict and the roots and plans lists while empty, and the
#: empty record's name and status (a contribution that relabels them is
#: charged the difference); its origin is charged apart
_RECORD_BYTES = (
    sys.getsizeof(TraceRecord("0" * 32))
    + 288
    + sys.getsizeof("0" * 32)
    + 2 * sys.getsizeof(0.0)
    + sys.getsizeof({})
    + 2 * sys.getsizeof([])
    + sys.getsizeof(TraceRecord.name)
    + sys.getsizeof(TraceRecord.status)
)

#: what a record's roots or plans list is charged for each item it
#: keeps, beside the item's own :func:`~repro.obs.memory.tree_bytes`:
#: one pointer slot
_SLOT_BYTES = 8


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
        origin: str = "",
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
        :data:`MAX_ROOTS_PER_TRACE` of each.

        Byte accounting reads shapes, not values.  A record is charged
        :data:`_RECORD_BYTES`, its origin, name and status and each attr
        key and value ``sys.getsizeof`` (the attrs dict its table's
        growth, :func:`_merge_attrs`), and each span tree and plan it
        keeps a pointer slot plus :func:`~repro.obs.memory.tree_bytes`
        (measured outside the store lock, on the writer's thread).  A
        contribution is charged only what it adds or replaces, so a
        merge never re-walks the record; one to a trace not yet resident
        first stores an empty record, in the same step.  Either way the
        store lock is taken once, and the pressure hook fires once,
        after it is released.
        """
        error = status not in ("ok", "")
        root_bytes = list(map(tree_bytes, roots)) if roots else None
        plan_bytes = list(map(tree_bytes, plans)) if plans else None
        trace_id = context.trace_id
        with self._lock:
            record = self._entries.get(trace_id)
            if record is None:
                record = TraceRecord(
                    trace_id, context.origin, started_at=time.time()
                )
                counts = {"traces.stored": 1}
                evicted = self._add(
                    trace_id, record, _RECORD_BYTES + sys.getsizeof(record.origin)
                )
                if evicted:
                    counts[self._evict_counter] = evicted
                self.counters.add_many(counts)
            else:
                # a contributor refreshes recency, so a trace still
                # being assembled is not evicted under its writers
                self._entries.move_to_end(trace_id)
                self.counters.add("traces.merged")
            grown = 0
            # the entry point that minted the trace names it, whoever
            # contributed first (an API request's queries run before it
            # records its own view)
            if name and (not record.name or origin == record.origin):
                grown += sys.getsizeof(name) - sys.getsizeof(record.name)
                record.name = name
            if origin and not record.origin:
                grown += sys.getsizeof(origin) - sys.getsizeof(record.origin)
                record.origin = origin
            if status != record.status and (
                error or record.status in ("ok", "")
            ):
                grown += sys.getsizeof(status) - sys.getsizeof(record.status)
                record.status = status
            record.latency_s = max(record.latency_s, latency_s)
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
            self._charge(trace_id, grown)
        self._grew()

    def _extend_capped(
        self, into: list, items: list, sizes: list[int], counter: str
    ) -> int:
        """Append to a record's ``into`` what fits under
        :data:`MAX_ROOTS_PER_TRACE`, counting the rest under
        ``counter``; what the kept items are charged (each its slot and
        its ``sizes`` entry)."""
        room = max(0, MAX_ROOTS_PER_TRACE - len(into))
        kept = items[:room]
        into.extend(kept)
        if len(items) > room:
            self.counters.add(counter, len(items) - room)
        return _SLOT_BYTES * len(kept) + sum(sizes[:room])

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
