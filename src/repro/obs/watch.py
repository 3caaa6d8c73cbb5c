"""``repro watch``: terminal trends over the ``/timeseries`` endpoint.

Where ``repro top`` renders *instantaneous* headlines from two raw
``/metrics`` scrapes, ``watch`` is a client of the time-series layer:
each frame fetches a handful of ``/timeseries/<metric>`` windows (plus
``/alerts``) and renders one sparkline row per metric — latency
quantile trend, query-rate trend, cache-hit trend, in-flight depth —
so a human watching a long run sees the shape over time, not just the
latest number.  Everything works on the JSON payloads alone, so frame
rendering is testable without a live endpoint.
"""

from __future__ import annotations

from repro.obs.top import fetch_json

#: the metrics one watch frame fetches, with a short display label
WATCH_METRICS = (
    ("serve.query_latency_seconds", "query p95"),
    ("engine.query_seconds", "engine p95"),
    ("serve.admitted", "admitted"),
    ("result_cache.hits", "cache hits"),
    ("serve.in_flight", "in-flight"),
    ("serve.alerts_firing", "alerts firing"),
)

_SPARKS = "▁▂▃▄▅▆▇█"


def _spark(values: list[float], width: int = 48) -> str:
    if not values:
        return "(no data)"
    if len(values) > width:
        values = values[-width:]
    low, high = min(values), max(values)
    span = high - low
    if span <= 0:
        return _SPARKS[0] * len(values)
    return "".join(
        _SPARKS[min(len(_SPARKS) - 1, int((v - low) / span * len(_SPARKS)))]
        for v in values
    )


def _series_values(payload: dict) -> list[float]:
    """The plottable value series of one ``/timeseries`` payload."""
    key = "delta" if payload["kind"] == "counter" else "value"
    return [point[key] for point in payload.get("points", [])]


def _headline(payload: dict) -> str:
    """The latest-number suffix for one metric row."""
    kind = payload["kind"]
    values = _series_values(payload)
    if kind == "counter":
        return f"rate {payload.get('rate_per_s', 0.0):8.1f}/s"
    if kind == "gauge":
        return f"now {values[-1] if values else 0.0:10.1f}"
    quantile = payload.get("window_quantile_s")
    observations = payload.get("window_observations", 0)
    if quantile is None:
        return f"({observations} obs in window)"
    return f"p{payload.get('quantile', 0.95) * 100:.0f} {quantile * 1000:8.3f}ms ({observations} obs)"


def render_watch_frame(
    payloads: list[tuple[str, dict | None]],
    alerts: dict | None,
    width: int = 48,
) -> str:
    """One watch frame from fetched payloads (``None`` rows show absent)."""
    lines = []
    for label, payload in payloads:
        if payload is None:
            lines.append(f"{label:<14} (not exported)")
            continue
        lines.append(
            f"{label:<14} {_spark(_series_values(payload), width):<{width}} "
            f"{_headline(payload)}"
        )
    if alerts is not None:
        firing = alerts.get("firing", [])
        if firing:
            names = ", ".join(f["rule"] for f in firing)
            lines.append(f"ALERTS FIRING: {names}")
        else:
            events = alerts.get("events", [])
            lines.append(
                f"alerts: none firing ({len(events)} transitions logged)"
            )
    return "\n".join(lines)


def watch_frame(
    base_url: str, seconds: float = 60.0, q: float = 0.95
) -> str:
    """Fetch and render one frame against a running endpoint."""
    base = base_url.rstrip("/")
    payloads = [
        (
            label,
            fetch_json(
                f"{base}/timeseries/{metric}?seconds={seconds:g}&q={q:g}"
            ),
        )
        for metric, label in WATCH_METRICS
    ]
    alerts = fetch_json(f"{base}/alerts")
    return render_watch_frame(payloads, alerts)
