"""The central metrics registry.

Every component that accounts work into a
:class:`~repro.util.stats.Counters` bag — the simulated disk, the
buffer pool, the WAL, fact files, OLAP arrays, the serving layer, the
HTTP API, per-query counter bags — registers that bag under a source
name.  There is one rule: **sources count up, a cost is a difference.**
No bag is zeroed at a measurement boundary; what a query, a span or a
sampling window cost is :func:`~repro.util.stats.counter_delta` of two
:meth:`MetricsRegistry.snapshot_by_source` maps, and
:meth:`MetricsRegistry.merged_snapshot` is the lifetime total.  A
snapshot costs what changed, not what exists: a source hands out the
same frozen dict until its next increment and ``counter_delta`` skips it
by identity.

A per-query bag registered with :meth:`MetricsRegistry.scoped` is folded
into the ``retired`` bag when its block ends, so totals never drop when
a query finishes and a span enclosing the query sees the query's
``cells_scanned`` / ``btree_probes`` in its own difference.  Gauges
(callables sampled at export time) and cumulative
:class:`~repro.obs.histogram.Histogram` latency distributions ride along
for the Prometheus exporter.

The registry is thread-safe: the serving layer registers per-query
scoped sources, samples gauges and scrapes snapshots concurrently, so
every map mutation — and every snapshot, so that a bag is never seen
both live and retired — happens under one lock.  :meth:`scoped`
uniquifies its source name: two queries in flight both registering
``"query"`` get distinct names instead of a duplicate-source error.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from contextlib import contextmanager

from repro.errors import MetricsError
from repro.obs.histogram import Histogram
from repro.util.stats import Counters, counter_delta


#: the snapshot key of the bag finished :meth:`MetricsRegistry.scoped`
#: sources are folded into; not registrable
RETIRED = "retired"


class MetricsRegistry:
    """Named :class:`Counters` sources plus sampled gauges and histograms."""

    def __init__(self) -> None:
        self._sources: dict[str, Counters] = {}
        self._retired = Counters()
        self._gauges: dict[str, Callable[[], float]] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.RLock()

    # -- sources -----------------------------------------------------------

    def register(
        self, name: str, counters: Counters, replace: bool = False
    ) -> Counters:
        """Register one counter source under ``name``."""
        if name == RETIRED:
            raise MetricsError(f"metrics source name {name!r} is reserved")
        with self._lock:
            if name in self._sources and not replace:
                raise MetricsError(f"metrics source {name!r} already registered")
            self._sources[name] = counters
        return counters

    def unregister(self, name: str) -> None:
        """Remove one source (its counters stop contributing)."""
        with self._lock:
            if name not in self._sources:
                raise MetricsError(f"no metrics source named {name!r}")
            del self._sources[name]

    @contextmanager
    def scoped(self, name: str, counters: Counters):
        """Register ``counters`` for the duration of a ``with`` block.

        The engine uses this to expose a query's private counter bag
        (``chunks_read``, ``btree_probes``, ...) to the tracer while the
        query runs.  When ``name`` is already taken — two queries in
        flight — a uniquified ``name#N`` is used, so concurrent scoped
        sources never collide.  On exit the bag's counts move into the
        ``retired`` bag in one step, so no total drops and no snapshot
        sees them twice.
        """
        with self._lock:
            actual = name
            serial = 2
            while actual in self._sources or actual == RETIRED:
                actual = f"{name}#{serial}"
                serial += 1
            self._sources[actual] = counters
        try:
            yield counters
        finally:
            with self._lock:
                del self._sources[actual]
                self._retired.merge(counters)

    def counters(self, name: str) -> Counters:
        """The registered bag for ``name``."""
        with self._lock:
            try:
                return self._sources[name]
            except KeyError:
                raise MetricsError(f"no metrics source named {name!r}") from None

    def source_names(self) -> list[str]:
        """All registered source names, sorted."""
        with self._lock:
            return sorted(self._sources)

    # -- gauges ------------------------------------------------------------

    def register_gauge(
        self, name: str, fn: Callable[[], float], replace: bool = False
    ) -> None:
        """Register a point-in-time sampled value (e.g. pool residency)."""
        with self._lock:
            if name in self._gauges and not replace:
                raise MetricsError(f"gauge {name!r} already registered")
            self._gauges[name] = fn

    def gauge_values(self) -> dict[str, float]:
        """Sample every gauge now."""
        with self._lock:
            gauges = sorted(self._gauges.items())
        return {name: float(fn()) for name, fn in gauges}

    # -- histograms --------------------------------------------------------

    def register_histogram(
        self,
        name: str,
        histogram: Histogram | None = None,
        replace: bool = False,
    ) -> Histogram:
        """Register (or create) a latency histogram under ``name``.

        With ``replace=True`` an existing histogram under the same name
        is *kept* (and returned) when the caller did not supply one —
        re-registration at e.g. service restart must not discard the
        process's latency history.
        """
        with self._lock:
            existing = self._histograms.get(name)
            if existing is not None and not replace:
                raise MetricsError(f"histogram {name!r} already registered")
            if histogram is None:
                histogram = existing if existing is not None else Histogram()
            self._histograms[name] = histogram
        return histogram

    def histogram(self, name: str) -> Histogram:
        """The registered histogram for ``name``."""
        with self._lock:
            try:
                return self._histograms[name]
            except KeyError:
                raise MetricsError(f"no histogram named {name!r}") from None

    def histogram_names(self) -> list[str]:
        """All registered histogram names, sorted."""
        with self._lock:
            return sorted(self._histograms)

    def observe(
        self, name: str, value: float, trace_id: str | None = None
    ) -> None:
        """Record one observation, creating the histogram on first use.

        The instrumentation convenience: call sites do not need to
        thread a :class:`Histogram` handle around, just a registry.
        ``trace_id`` attaches an exemplar to the observation's bucket.
        """
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
        histogram.observe(value, trace_id=trace_id)

    def histogram_snapshots(self) -> dict[str, dict]:
        """Per-histogram :meth:`Histogram.to_dict` payloads, by name."""
        with self._lock:
            items = sorted(self._histograms.items())
        return {name: histogram.to_dict() for name, histogram in items}

    # -- collection --------------------------------------------------------

    def snapshot_by_source(self) -> dict[str, dict[str, float]]:
        """Per-source frozen snapshots, keyed by source name.

        Empty sources are kept; the ``retired`` bag appears once a
        scoped source has been folded into it.  The dicts are shared
        (see :meth:`Counters.frozen <repro.util.stats.Counters.frozen>`):
        read them, diff two maps with
        :func:`~repro.util.stats.counter_delta`, never mutate them.
        """
        with self._lock:
            snapshot = {
                name: counters.frozen()
                for name, counters in self._sources.items()
            }
            retired = self._retired.frozen()
        if retired:
            snapshot[RETIRED] = retired
        return snapshot

    def merged_snapshot(self) -> dict[str, float]:
        """Lifetime totals across all sources, summed by counter name."""
        return counter_delta({}, self.snapshot_by_source())
