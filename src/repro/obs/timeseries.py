"""A bounded in-process time-series store over the metrics registry.

The paper's central claim — the cost *crossover* between array-based
and relational evaluation — is a statement about behavior over a
workload, not a single query, yet until this layer every observability
surface (counters, histograms, EXPLAIN) was point-in-time.  The
:class:`TimeSeriesStore` closes that gap: at a configurable interval it
snapshots the whole :class:`~repro.obs.registry.MetricsRegistry` —
per-source counter snapshots, sampled gauges, cumulative histogram
buckets — into a fixed-capacity ring, and answers *windowed* questions:

- "what was the query rate over the last 30 s?" (:meth:`counter_rate`),
- "what is the p99 over the last 30 s, not since process start?"
  (:meth:`window_quantile` — the difference of two cumulative bucket
  vectors is exactly the histogram of the window between them),
- "how did the cache hits evolve?" (:meth:`counter_series`).

Windows are **exact**: every registered source counts up for the life
of its owner and histograms are cumulative, so what happened between two
samples is their difference — the same
:func:`~repro.util.stats.counter_delta` a span or a query uses, over the
same per-source snapshots.  Ten queries between two samples move
``pages_read`` by the sum of the ten ``QueryResult.stats["pages_read"]``.
The one exception is a source that is unregistered or replaced (a
service restarted over the same engine) inside the window: it takes its
history with it, and the window clamps at zero rather than going
negative.  A source idle between two samples shares one snapshot dict
between them, so a quiet ring costs little.

The store is thread-safe and cheap enough to sample at sub-second
intervals; :meth:`start` runs the sampler on a daemon thread and fires
optional per-tick hooks (the memory budget check rides there).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import MetricsError
from repro.obs.histogram import quantile_from_buckets
from repro.obs.memory import deep_sizeof
from repro.obs.registry import MetricsRegistry
from repro.util.stats import counter_delta


@dataclass(frozen=True)
class TimePoint:
    """One registry snapshot: wall time and values."""

    t: float
    #: source name -> that source's frozen counters (shared, read-only)
    sources: dict[str, dict[str, float]] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    #: histogram name -> (bounds, per-bucket cumulative-from-zero counts
    #: including the overflow bucket, sum, count) — all cumulative over
    #: process life, so two points subtract into a window histogram
    histograms: dict[str, tuple[tuple[float, ...], tuple[int, ...], float, int]] = (
        field(default_factory=dict)
    )


def _moved(older: TimePoint, newer: TimePoint, name: str) -> float:
    """How far counter ``name`` moved between two samples."""
    delta = counter_delta(older.sources, newer.sources)
    return max(0.0, delta.get(name, 0.0))


class TimeSeriesStore:
    """Fixed-capacity ring of registry snapshots with windowed queries."""

    def __init__(
        self,
        registry: MetricsRegistry,
        capacity: int = 600,
        name: str = "timeseries",
    ):
        if capacity < 2:
            raise MetricsError(
                f"a time-series ring needs capacity >= 2, got {capacity}"
            )
        self.registry = registry
        self.capacity = capacity
        self.name = name
        self._points: deque[TimePoint] = deque(maxlen=capacity)
        #: parallel per-point byte sizes; same maxlen so both rings
        #: evict the same head entry on overflow
        self._sizes: deque[int] = deque(maxlen=capacity)
        self._resident_bytes = 0
        self._lock = threading.Lock()
        self._samples_taken = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- sampling ------------------------------------------------------------

    def sample(self, now: float | None = None) -> TimePoint:
        """Snapshot the registry into the ring; returns the new point."""
        registry = self.registry
        sources = registry.snapshot_by_source()
        gauges = registry.gauge_values()
        histograms = {}
        for hname, snap in registry.histogram_snapshots().items():
            histograms[hname] = (
                tuple(snap["bounds"]),
                tuple(int(c) for c in snap["counts"]),
                float(snap["sum"]),
                int(snap["count"]),
            )
        point = TimePoint(
            t=time.time() if now is None else now,
            sources=sources,
            gauges=gauges,
            histograms=histograms,
        )
        nbytes = deep_sizeof(point)
        with self._lock:
            if len(self._points) == self.capacity:
                self._resident_bytes -= self._sizes[0]
            self._points.append(point)
            self._sizes.append(nbytes)
            self._resident_bytes += nbytes
            self._samples_taken += 1
        return point

    @property
    def samples_taken(self) -> int:
        """Total snapshots ever taken (including ones the ring evicted)."""
        with self._lock:
            return self._samples_taken

    def __len__(self) -> int:
        with self._lock:
            return len(self._points)

    def resident_bytes(self) -> int:
        """Measured bytes across the resident ring (O(1))."""
        with self._lock:
            return self._resident_bytes

    # -- background sampler --------------------------------------------------

    def start(
        self,
        interval_s: float,
        hooks: tuple[Callable[[TimePoint], object], ...] = (),
    ) -> "TimeSeriesStore":
        """Sample every ``interval_s`` on a daemon thread; returns self.

        Each tick appends one snapshot and then runs every hook with the
        fresh point.  Hook exceptions are swallowed — a broken hook must
        not kill the sampler.
        """
        if interval_s <= 0:
            raise MetricsError(
                f"sampler interval must be positive, got {interval_s}"
            )
        if self._thread is not None:
            return self

        def run() -> None:
            while not self._stop.is_set():
                point = self.sample()
                for hook in hooks:
                    try:
                        hook(point)
                    except Exception:  # pragma: no cover - defensive
                        pass
                self._stop.wait(interval_s)

        self._stop.clear()
        self._thread = threading.Thread(
            target=run, name=f"repro-obs-sampler-{self.name}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the background sampler (no-op when it never started)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5)
        self._thread = None

    # -- window selection ----------------------------------------------------

    def points(self, window_s: float | None = None) -> list[TimePoint]:
        """Points inside the trailing window (oldest first; all if None)."""
        with self._lock:
            points = list(self._points)
        if window_s is None or not points:
            return points
        cutoff = points[-1].t - window_s
        return [p for p in points if p.t >= cutoff]

    def latest(self) -> TimePoint | None:
        with self._lock:
            return self._points[-1] if self._points else None

    # -- windowed counter math -----------------------------------------------

    def counter_delta(self, name: str, window_s: float) -> float:
        """Total counter movement over the window."""
        points = self.points(window_s)
        if len(points) < 2:
            return 0.0
        return _moved(points[0], points[-1], name)

    def counter_rate(self, name: str, window_s: float) -> float:
        """Per-second rate of a counter over the trailing window."""
        points = self.points(window_s)
        if len(points) < 2:
            return 0.0
        elapsed = points[-1].t - points[0].t
        if elapsed <= 0:
            return 0.0
        return self.counter_delta(name, window_s) / elapsed

    def counter_series(
        self, name: str, window_s: float | None = None
    ) -> list[tuple[float, float]]:
        """Per-interval (t, delta) pairs for one counter."""
        points = self.points(window_s)
        return [(b.t, _moved(a, b, name)) for a, b in zip(points, points[1:])]

    def gauge_series(
        self, name: str, window_s: float | None = None
    ) -> list[tuple[float, float]]:
        """(t, value) pairs of one sampled gauge over the window."""
        return [
            (p.t, p.gauges[name])
            for p in self.points(window_s)
            if name in p.gauges
        ]

    # -- windowed histogram math -----------------------------------------------

    def window_histogram(
        self, name: str, window_s: float
    ) -> tuple[tuple[float, ...], list[int]] | None:
        """``(bounds, per-bucket counts)`` for the trailing window.

        Histograms are cumulative over process life, so the
        element-wise difference of the newest and oldest
        in-window bucket vectors *is* the histogram of observations made
        between those two samples.  Returns ``None`` when the metric is
        absent or the window holds fewer than two points.
        """
        points = self.points(window_s)
        first = next((p for p in points if name in p.histograms), None)
        last = next(
            (p for p in reversed(points) if name in p.histograms), None
        )
        if first is None or last is None or first is last:
            return None
        bounds, start_counts, _, _ = first.histograms[name]
        bounds_end, end_counts, _, _ = last.histograms[name]
        if bounds_end != bounds:  # re-registered with different buckets
            return None
        counts = [max(0, e - s) for s, e in zip(start_counts, end_counts)]
        return bounds, counts

    def window_count(self, name: str, window_s: float) -> int:
        """Histogram observations recorded inside the trailing window."""
        window = self.window_histogram(name, window_s)
        return sum(window[1]) if window else 0

    def window_quantile(
        self, name: str, q: float, window_s: float
    ) -> float | None:
        """Windowed latency quantile, or None without in-window data."""
        window = self.window_histogram(name, window_s)
        if window is None:
            return None
        bounds, counts = window
        if sum(counts) <= 0:
            return None
        return quantile_from_buckets(bounds, counts, q)

    def quantile_series(
        self, name: str, q: float, window_s: float | None = None
    ) -> list[tuple[float, float]]:
        """Per-interval (t, quantile) pairs from successive snapshots.

        Intervals where the histogram saw no observations are skipped —
        an idle stretch has no latency, rather than a misleading zero.
        """
        points = self.points(window_s)
        series: list[tuple[float, float]] = []
        for a, b in zip(points, points[1:]):
            if name not in a.histograms or name not in b.histograms:
                continue
            bounds, start_counts, _, _ = a.histograms[name]
            bounds_end, end_counts, _, _ = b.histograms[name]
            if bounds_end != bounds:
                continue
            counts = [
                max(0, e - s) for s, e in zip(start_counts, end_counts)
            ]
            if sum(counts) <= 0:
                continue
            series.append((b.t, quantile_from_buckets(bounds, counts, q)))
        return series

    # -- introspection ---------------------------------------------------------

    def metric_names(self) -> dict[str, str]:
        """Name -> kind (``counter``/``gauge``/``histogram``) at the
        newest sample (empty before the first one)."""
        latest = self.latest()
        if latest is None:
            return {}
        names: dict[str, str] = {}
        for counters in latest.sources.values():
            for name in counters:
                names[name] = "counter"
        for name in latest.gauges:
            names[name] = "gauge"
        for name in latest.histograms:
            names[name] = "histogram"
        return dict(sorted(names.items()))

    def series_payload(
        self, metric: str, window_s: float = 60.0, q: float = 0.95
    ) -> dict | None:
        """The ``/timeseries/<metric>`` JSON body, or None when unknown.

        Counters report per-interval deltas plus the windowed rate;
        gauges report raw samples; histograms report the per-interval
        ``q``-quantile series plus the whole-window quantile and count.
        """
        kind = self.metric_names().get(metric)
        if kind is None:
            return None
        payload: dict = {
            "metric": metric,
            "kind": kind,
            "window_s": window_s,
            "samples": len(self),
        }
        if kind == "counter":
            payload["points"] = [
                {"t": t, "delta": v}
                for t, v in self.counter_series(metric, window_s)
            ]
            payload["rate_per_s"] = self.counter_rate(metric, window_s)
        elif kind == "gauge":
            payload["points"] = [
                {"t": t, "value": v}
                for t, v in self.gauge_series(metric, window_s)
            ]
        else:
            payload["quantile"] = q
            payload["points"] = [
                {"t": t, "value": v}
                for t, v in self.quantile_series(metric, q, window_s)
            ]
            payload["window_quantile_s"] = self.window_quantile(
                metric, q, window_s
            )
            payload["window_observations"] = self.window_count(
                metric, window_s
            )
        return payload
