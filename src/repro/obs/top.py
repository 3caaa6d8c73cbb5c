"""``repro top``: a terminal dashboard over the ``/metrics`` endpoint.

The dashboard is a thin Prometheus *client*: it polls the scrape
endpoint, parses the exposition text with
:func:`~repro.obs.exporters.parse_prometheus_text`, and derives the
serving headlines — QPS from counter deltas between polls, latency
quantiles from the ``_bucket`` series via
:func:`~repro.obs.histogram.quantile_from_buckets`, cache hit rates,
WAL fsync latency.  Everything here works on exposition text alone, so
the rendering is testable without a live HTTP server and works against
any endpoint that speaks the format.
"""

from __future__ import annotations

import json
import math
import urllib.error
import urllib.request
from dataclasses import dataclass, field

from repro.obs.exporters import (
    PromSample,
    parse_exemplar_comments,
    parse_prometheus_text,
)
from repro.obs.histogram import quantile_from_buckets
from repro.util.stats import counter_delta


def fetch_metrics(url: str, timeout_s: float = 5.0) -> str:
    """GET one scrape; returns the exposition text."""
    with urllib.request.urlopen(url, timeout=timeout_s) as response:
        return response.read().decode("utf-8")


def fetch_json(url: str, timeout_s: float = 5.0) -> dict | None:
    """GET one JSON payload; ``None`` on a 404 (nothing by that name)."""
    try:
        return json.loads(fetch_metrics(url, timeout_s))
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            return None
        raise


@dataclass
class MetricsView:
    """One scrape, aggregated for dashboard math.

    Counters are summed across their ``source`` labels (the registry
    exports one sample per source); histograms keep per-``le``
    cumulative counts plus ``_sum``/``_count``.
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    #: name -> {le_string: cumulative count}
    histogram_buckets: dict[str, dict[str, float]] = field(default_factory=dict)
    histogram_sums: dict[str, float] = field(default_factory=dict)
    histogram_counts: dict[str, float] = field(default_factory=dict)
    #: name -> {le_string: {"trace_id", "value"}} from # EXEMPLAR lines
    exemplars: dict[str, dict[str, dict]] = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str) -> "MetricsView":
        samples, types = parse_prometheus_text(text)
        view = cls()
        for sample in samples:
            view._ingest(sample, types)
        view.exemplars = parse_exemplar_comments(text)
        return view

    def _ingest(self, sample: PromSample, types: dict[str, str]) -> None:
        name = sample.name
        if name.endswith("_bucket") and "le" in sample.labels:
            base = name[: -len("_bucket")]
            buckets = self.histogram_buckets.setdefault(base, {})
            le = sample.labels["le"]
            buckets[le] = buckets.get(le, 0.0) + sample.value
            return
        if name.endswith("_sum") and types.get(name[: -len("_sum")]) == "histogram":
            base = name[: -len("_sum")]
            self.histogram_sums[base] = (
                self.histogram_sums.get(base, 0.0) + sample.value
            )
            return
        if (
            name.endswith("_count")
            and types.get(name[: -len("_count")]) == "histogram"
        ):
            base = name[: -len("_count")]
            self.histogram_counts[base] = (
                self.histogram_counts.get(base, 0.0) + sample.value
            )
            return
        if name.endswith("_total"):
            base = name[: -len("_total")]
            self.counters[base] = self.counters.get(base, 0.0) + sample.value
            return
        self.gauges[name] = sample.value

    # -- derived quantities --------------------------------------------------

    def counter(self, base: str) -> float:
        """Summed counter value for a base metric name (0 if absent)."""
        return self.counters.get(base, 0.0)

    def gauge(self, name: str) -> float:
        return self.gauges.get(name, 0.0)

    def quantile(self, histogram: str, q: float) -> float:
        """Latency quantile from the scraped cumulative buckets."""
        buckets = self.histogram_buckets.get(histogram)
        if not buckets:
            return 0.0
        finite = sorted(
            (float(le), cumulative)
            for le, cumulative in buckets.items()
            if le != "+Inf"
        )
        if not finite:  # degenerate scrape: only the +Inf bucket
            return 0.0
        bounds = tuple(le for le, _ in finite)
        # de-cumulate: quantile_from_buckets wants per-bucket counts,
        # with one trailing overflow bucket
        cumulative_counts = [count for _, count in finite]
        total = buckets.get("+Inf", cumulative_counts[-1] if finite else 0.0)
        counts, previous = [], 0.0
        for value in cumulative_counts:
            counts.append(value - previous)
            previous = value
        counts.append(total - previous)
        return quantile_from_buckets(bounds, counts, q)

    def hit_rate(self, hits: str, misses: str) -> float:
        """``hits / (hits + misses)`` over two counter base names."""
        h, m = self.counter(hits), self.counter(misses)
        return h / (h + m) if (h + m) else 0.0

    def exemplar_for(self, histogram: str, q: float) -> dict | None:
        """The exemplar nearest the ``q``-quantile bucket, or ``None``.

        Prefers the smallest bucket whose upper edge still covers the
        quantile (the trace that *lived* that latency); when every
        recorded exemplar sits below it, falls back to the slowest one.
        """
        per_le = self.exemplars.get(histogram)
        if not per_le:
            return None
        target = self.quantile(histogram, q)

        def edge(le: str) -> float:
            return math.inf if le == "+Inf" else float(le)

        covering = [
            (edge(le), info)
            for le, info in per_le.items()
            if edge(le) >= target
        ]
        if covering:
            return min(covering, key=lambda pair: pair[0])[1]
        return max(
            ((edge(le), info) for le, info in per_le.items()),
            key=lambda pair: pair[0],
        )[1]


def qps(previous: MetricsView, current: MetricsView, interval_s: float) -> float:
    """Admitted queries per second between two scrapes.

    Exported counters only count up, so the rate is their difference;
    it clamps at zero when the scraped process restarted in between.
    """
    if interval_s <= 0:
        return 0.0
    moved = counter_delta(
        {"scrape": previous.counters}, {"scrape": current.counters}
    )
    return max(0.0, moved.get("repro_serve_admitted", 0.0)) / interval_s


def _fmt_ms(seconds: float) -> str:
    if not math.isfinite(seconds):
        return "inf"
    return f"{seconds * 1000:8.3f}ms"

#: rendered where a metric family is absent from the scrape — a bare
#: endpoint (no serving layer attached) must degrade, not crash or
#: report a misleading 0.000ms
ABSENT = "—"


def _quantile_cell(view: MetricsView, histogram: str, q: float) -> str:
    """A latency cell, or ``—`` when the family has no observations."""
    if not view.histogram_counts.get(histogram):
        return f"{ABSENT:>8}  "  # width of _fmt_ms
    return _fmt_ms(view.quantile(histogram, q))


def _rate_cell(view: MetricsView, hits: str, misses: str) -> str:
    """A hit-rate cell, or ``—`` when neither counter was exported."""
    if hits not in view.counters and misses not in view.counters:
        return f"{ABSENT:>6}"
    return f"{view.hit_rate(hits, misses):6.1%}"


def _gauge_cell(view: MetricsView, name: str, spec: str = "6.1%") -> str:
    if name not in view.gauges:
        return f"{ABSENT:>6}"
    return format(view.gauge(name), spec)


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:7.1f}{unit}" if unit != "B" else f"{n:7.0f}B"
        n /= 1024.0
    return f"{n:7.1f}GiB"  # pragma: no cover - loop always returns


def _bytes_cell(view: MetricsView, name: str) -> str:
    """A resident-bytes cell, or ``—`` when the gauge is absent."""
    if name not in view.gauges:
        return f"{ABSENT:>10}"
    return _fmt_bytes(view.gauge(name))


def render_dashboard(
    previous: MetricsView | None,
    current: MetricsView,
    interval_s: float,
    prefix: str = "repro",
) -> str:
    """One dashboard frame as plain text.

    Families absent from the scrape render as ``—`` so the dashboard
    stays useful against a minimal registry (engine without a serving
    layer, or a foreign exporter).
    """
    q = f"{prefix}_serve_query_latency_seconds"
    lines = []
    rate = qps(previous, current, interval_s) if previous is not None else 0.0
    lines.append(
        f"qps {rate:8.1f}   in-flight {current.gauge(f'{prefix}_serve_in_flight'):4.0f}   "
        f"degraded cubes {current.gauge(f'{prefix}_serve_degraded_cubes'):2.0f}   "
        f"slowlog {current.gauge(f'{prefix}_serve_slowlog_entries'):3.0f}"
    )
    lines.append(
        f"query latency  p50 {_quantile_cell(current, q, 0.50)}  "
        f"p95 {_quantile_cell(current, q, 0.95)}  "
        f"p99 {_quantile_cell(current, q, 0.99)}  "
        f"({current.histogram_counts.get(q, 0.0):,.0f} obs)"
    )
    exemplar = current.exemplar_for(q, 0.95)
    if exemplar is not None:
        lines.append(
            f"p95 exemplar   trace {exemplar['trace_id']}  "
            f"({exemplar['value'] * 1000:.3f}ms — repro trace --id "
            f"{exemplar['trace_id']})"
        )
    wait = f"{prefix}_serve_queue_wait_seconds"
    lines.append(
        f"queue wait     p50 {_quantile_cell(current, wait, 0.50)}  "
        f"p95 {_quantile_cell(current, wait, 0.95)}"
    )
    lines.append(
        "cache hit-rate result "
        + _rate_cell(
            current,
            f"{prefix}_result_cache_hits",
            f"{prefix}_result_cache_misses",
        )
        + "   chunk "
        + _rate_cell(
            current,
            f"{prefix}_chunk_cache_hits",
            f"{prefix}_chunk_cache_misses",
        )
        + "   pool "
        + _gauge_cell(current, f"{prefix}_pool_hit_rate")
    )
    mem = f"{prefix}_memory_total_resident_bytes"
    lines.append(
        f"mem resident   total {_bytes_cell(current, mem)}   "
        f"pool {_bytes_cell(current, f'{prefix}_memory_buffer_pool_resident_bytes')}  "
        f"chunks {_bytes_cell(current, f'{prefix}_memory_chunk_cache_resident_bytes')}  "
        f"results {_bytes_cell(current, f'{prefix}_memory_result_cache_resident_bytes')}  "
        f"rollups {_bytes_cell(current, f'{prefix}_memory_rollup_grains_resident_bytes')}"
    )
    pressure = f"{prefix}_memory_pressure_events"
    if pressure in current.counters:
        lines.append(
            f"mem pressure   events {current.counter(pressure):,.0f}   "
            "reclaimed "
            + _fmt_bytes(current.counter(f"{prefix}_memory_reclaimed_bytes")).strip()
        )
    fsync = f"{prefix}_wal_fsync_seconds"
    if current.histogram_counts.get(fsync):
        lines.append(
            f"wal fsync      p50 {_fmt_ms(current.quantile(fsync, 0.50))}  "
            f"p99 {_fmt_ms(current.quantile(fsync, 0.99))}  "
            f"fsyncs {current.counter(f'{prefix}_wal_fsyncs'):,.0f}  "
            f"segments {current.gauge(f'{prefix}_wal_segments'):.0f}"
        )
    return "\n".join(lines)
