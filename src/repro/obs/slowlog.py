"""Structured slow-query log: a ring buffer of profiled outliers.

Percentile histograms say *that* the tail is slow; the slow-query log
says *why*.  Queries whose end-to-end latency crosses a configurable
threshold capture a full profile — the span tree of the execution
(phase timings plus per-phase counter deltas), the counter totals, the
plan choice (which backend ran and why the planner picked it) and the
cache disposition — into a bounded ring buffer.  The newest entries
win: under a retry storm the buffer holds the most recent evidence,
not the oldest.

The buffer is dumpable as JSON (``python -m repro slowlog``, or the
live ``/slowlog`` endpoint) and addressable by query fingerprint
(``/trace/<fingerprint>``), so "what happened to this exact query
shape" is one lookup.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro.obs.exporters import span_to_dict
from repro.obs.memory import SizedStore, deep_sizeof
from repro.obs.tracer import Span


@dataclass(frozen=True)
class SlowQueryRecord:
    """One profiled slow query."""

    #: canonical query fingerprint (see :mod:`repro.serve.fingerprint`)
    fingerprint: str
    cube: str
    #: the backend that actually executed (planner-resolved)
    backend: str
    #: client-observed end-to-end latency, seconds
    latency_s: float
    #: the threshold that was in force when this was captured
    threshold_s: float
    #: unix timestamp of capture
    captured_at: float
    #: "hit" / "miss" — the result-cache disposition
    cache: str
    #: planner context: requested backend, chosen backend, reason
    plan: dict = field(default_factory=dict)
    #: counter deltas over the whole query (root span's inclusive I/O)
    counters: dict = field(default_factory=dict)
    #: full span trees recorded during the execution (usually one root)
    trace: list = field(default_factory=list)
    #: analyzed EXPLAIN plan for the slow run, when the serving layer
    #: could build one (estimate-vs-actual per plan node)
    explain: dict | None = None
    #: distributed trace id of the request that ran slow, when one was
    #: active — the ``/trace/id/<trace_id>`` key
    trace_id: str | None = None

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "cube": self.cube,
            "backend": self.backend,
            "latency_s": self.latency_s,
            "threshold_s": self.threshold_s,
            "captured_at": self.captured_at,
            "cache": self.cache,
            "plan": dict(self.plan),
            "counters": dict(self.counters),
            "trace": list(self.trace),
            "explain": dict(self.explain) if self.explain else None,
            "trace_id": self.trace_id,
        }


def _plan_from_trace(roots: list[Span]) -> dict:
    """Pull the planner's choice out of the recorded span tree."""
    for root in roots:
        span = root.find("query")
        if span is not None:
            return {
                "backend": span.attrs.get("backend"),
                "reason": span.attrs.get("planner_reason", "explicit"),
            }
    return {}


class SlowQueryLog(SizedStore):
    """Thread-safe ring buffer of :class:`SlowQueryRecord` entries.

    Keyed by capture number and never touched, so the oldest record is
    the first to go, at capacity or under memory pressure: a dropped
    record costs one debugging breadcrumb, never a wrong answer.
    """

    def __init__(self, capacity: int = 64, threshold_s: float = 0.25):
        super().__init__(capacity)
        self.threshold_s = threshold_s
        self._captured = 0

    def should_capture(self, latency_s: float) -> bool:
        """Whether a query this slow crosses the logging threshold."""
        return latency_s >= self.threshold_s

    def record(
        self,
        fingerprint: str,
        cube: str,
        backend: str,
        latency_s: float,
        roots: list[Span] | None = None,
        cache: str = "miss",
        requested_backend: str | None = None,
        explain: dict | None = None,
        trace_id: str | None = None,
    ) -> SlowQueryRecord | None:
        """Capture one slow query; returns the record, or ``None`` when
        the latency is under the threshold (callers may invoke this
        unconditionally)."""
        if not self.should_capture(latency_s):
            return None
        roots = roots or []
        plan = _plan_from_trace(roots)
        if requested_backend is not None:
            plan.setdefault("requested", requested_backend)
        counters: dict = {}
        for root in roots:
            for name, value in root.io.items():
                counters[name] = counters.get(name, 0.0) + value
        entry = SlowQueryRecord(
            fingerprint=fingerprint,
            cube=cube,
            backend=backend,
            latency_s=latency_s,
            threshold_s=self.threshold_s,
            captured_at=time.time(),
            cache=cache,
            plan=plan,
            counters=counters,
            trace=[span_to_dict(root) for root in roots],
            explain=explain,
            trace_id=trace_id,
        )
        nbytes = deep_sizeof(entry)
        with self._lock:
            self._captured += 1
            self.put(self._captured, entry, nbytes)
        return entry

    # -- reading -------------------------------------------------------------

    @property
    def captured(self) -> int:
        """Total records ever captured (including ones the ring evicted)."""
        with self._lock:
            return self._captured

    def entries(self) -> list[SlowQueryRecord]:
        """Current records, oldest first."""
        return self.values()

    def find(self, fingerprint: str) -> SlowQueryRecord | None:
        """The most recent record for one query fingerprint, if any."""
        for entry in reversed(self.values()):
            if entry.fingerprint == fingerprint:
                return entry
        return None

    def to_json(self, indent: int | None = 2) -> str:
        """The whole ring as a JSON array (oldest first)."""
        return json.dumps(
            [entry.to_dict() for entry in self.entries()], indent=indent
        )

    def _label(self, key) -> str:
        return self._entries[key].fingerprint
