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

Every registration is owned.  :meth:`MetricsRegistry.register` and
:meth:`~MetricsRegistry.register_gauge` put an entry live under its
name or, when another owner already holds that name, under ``name#N``,
and return the name it went live under; the owner keeps it and hands
it back to :meth:`~MetricsRegistry.unregister` /
:meth:`~MetricsRegistry.unregister_gauge`, which remove exactly that
entry.  So two services or endpoints on one engine never hide or
remove each other's sources.  An unregistered source's counts move
into the ``retired`` bag in one step, so no total ever drops and a
span enclosing a finished query sees its ``cells_scanned`` /
``btree_probes`` in its own difference; :meth:`~MetricsRegistry.scoped`
is register + unregister around a ``with`` block.  Gauges (callables
sampled at export time) and cumulative
:class:`~repro.obs.histogram.Histogram` latency distributions ride along
for the Prometheus exporter; a histogram is shared by name, and every
owner observes into the one :meth:`~MetricsRegistry.register_histogram`
returns.

The registry is thread-safe: the serving layer registers per-query
scoped sources, samples gauges and scrapes snapshots concurrently, so
every map mutation — and every snapshot, so that a bag is never seen
both live and retired — happens under one lock.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from contextlib import contextmanager

from repro.errors import MetricsError
from repro.obs.histogram import Histogram
from repro.util.stats import Counters, counter_delta


#: the snapshot key of the bag unregistered sources are folded into;
#: not registrable
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

    @staticmethod
    def _claim(taken, name: str) -> str:
        """``name``, or ``name#N`` (the first free ``N`` from 2) when
        another owner holds it."""
        actual, serial = name, 2
        while actual in taken:
            actual = f"{name}#{serial}"
            serial += 1
        return actual

    def register(self, name: str, counters: Counters) -> str:
        """Put ``counters`` live under ``name``; return the name it is
        live under, which the owner passes to :meth:`unregister`."""
        if name == RETIRED:
            raise MetricsError(f"metrics source name {name!r} is reserved")
        with self._lock:
            actual = self._claim(self._sources, name)
            self._sources[actual] = counters
        return actual

    def unregister(self, name: str) -> None:
        """Remove the source live under ``name``; its counts move into
        the ``retired`` bag in one step, so no total drops."""
        with self._lock:
            counters = self._sources.pop(name, None)
            if counters is None:
                raise MetricsError(f"no metrics source named {name!r}")
            self._retired.merge(counters)

    @contextmanager
    def scoped(self, name: str, counters: Counters):
        """Register ``counters`` for the duration of a ``with`` block.

        The engine uses this to expose a query's private counter bag
        (``chunks_read``, ``btree_probes``, ...) to the tracer while the
        query runs; two queries in flight get ``query`` and ``query#2``.
        """
        actual = self.register(name, counters)
        try:
            yield counters
        finally:
            self.unregister(actual)

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

    def register_gauge(self, name: str, fn: Callable[[], float]) -> str:
        """Register a point-in-time sampled value (e.g. pool residency)
        under ``name`` or, when taken, ``name#N``; return that name."""
        with self._lock:
            actual = self._claim(self._gauges, name)
            self._gauges[actual] = fn
        return actual

    def unregister_gauge(self, name: str) -> None:
        """Remove the gauge live under ``name``."""
        with self._lock:
            if self._gauges.pop(name, None) is None:
                raise MetricsError(f"no gauge named {name!r}")

    def gauge_values(self) -> dict[str, float]:
        """Sample every gauge now."""
        with self._lock:
            gauges = sorted(self._gauges.items())
        return {name: float(fn()) for name, fn in gauges}

    # -- histograms --------------------------------------------------------

    def register_histogram(
        self, name: str, histogram: Histogram | None = None
    ) -> Histogram:
        """The histogram shared under ``name``, created on first use.

        Every owner observes into the one it is handed, so a service
        restarted over the same engine continues the process's latency
        history.  An owner that brings its own ``histogram`` (the buffer
        pool's, the log's) makes it the shared one; the name must then
        be free.
        """
        with self._lock:
            existing = self._histograms.get(name)
            if existing is None:
                existing = self._histograms[name] = (
                    histogram if histogram is not None else Histogram()
                )
            elif histogram is not None and histogram is not existing:
                raise MetricsError(f"histogram {name!r} already registered")
        return existing

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
        self.register_histogram(name).observe(value, trace_id=trace_id)

    def histogram_snapshots(self) -> dict[str, dict]:
        """Per-histogram :meth:`Histogram.to_dict` payloads, by name."""
        with self._lock:
            items = sorted(self._histograms.items())
        return {name: histogram.to_dict() for name, histogram in items}

    # -- collection --------------------------------------------------------

    def snapshot_by_source(self) -> dict[str, dict[str, float]]:
        """Per-source frozen snapshots, keyed by source name.

        Empty sources are kept; the ``retired`` bag appears once an
        unregistered source has been folded into it.  The dicts are shared
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
