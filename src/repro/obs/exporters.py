"""Trace and metrics exporters: JSON, text tree, Prometheus format.

The JSON form is the machine-readable artifact the bench harness drops
next to ``benchmarks/results/``; the text tree is what ``python -m
repro trace`` prints; the Prometheus text format is what the live
``/metrics`` endpoint serves, so the counters, gauges and latency
histograms map 1:1 onto a real monitoring stack.  The scrape side —
parsing and linting an export against the exposition grammar — lives
with the tests that hold every export to it (``tests/prom_text.py``).
"""

from __future__ import annotations

import json
import re

from repro.obs.tracer import Span

_METRIC_NAME = re.compile(r"[^a-zA-Z0-9_:]")


# -- JSON traces ------------------------------------------------------------


def span_to_dict(span: Span) -> dict:
    """A JSON-serializable dict of one span subtree."""
    return {
        "name": span.name,
        "attrs": dict(span.attrs),
        "duration_s": span.duration_s,
        "io": dict(span.io),
        "children": [span_to_dict(child) for child in span.children],
    }


def span_from_dict(payload: dict) -> Span:
    """Rebuild a :class:`Span` tree from :func:`span_to_dict` output."""
    span = Span(payload["name"], dict(payload.get("attrs", {})))
    span.duration_s = float(payload.get("duration_s", 0.0))
    span.io = dict(payload.get("io", {}))
    span.children = [
        span_from_dict(child) for child in payload.get("children", [])
    ]
    return span


def trace_to_json(spans: list[Span] | Span, indent: int | None = 2) -> str:
    """Serialize one span or a list of root spans to JSON text."""
    if isinstance(spans, Span):
        spans = [spans]
    return json.dumps([span_to_dict(s) for s in spans], indent=indent)



# -- text tree ---------------------------------------------------------------


def _format_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{int(value)}"


def _span_line(span: Span, max_counters: int) -> str:
    parts = [span.name]
    if span.attrs:
        parts.append(
            " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
        )
    parts.append(f"[{span.duration_s * 1000:.2f} ms]")
    if span.io:
        shown = sorted(
            span.io.items(), key=lambda kv: (-abs(kv[1]), kv[0])
        )[:max_counters]
        rendered = " ".join(f"{k}={_format_value(v)}" for k, v in sorted(shown))
        suffix = " ..." if len(span.io) > max_counters else ""
        parts.append(f"{{{rendered}{suffix}}}")
    return "  ".join(parts)


def render_span_tree(span: Span, max_counters: int = 8) -> str:
    """Render a span tree as an indented text diagram.

    Counter deltas shown per span are inclusive of children; at most
    ``max_counters`` (largest first) are printed per line.
    """
    lines = [_span_line(span, max_counters)]
    _render_children(span, "", lines, max_counters)
    return "\n".join(lines)


def _render_children(
    span: Span, prefix: str, lines: list[str], max_counters: int
) -> None:
    for i, child in enumerate(span.children):
        last = i == len(span.children) - 1
        connector = "└─ " if last else "├─ "
        lines.append(prefix + connector + _span_line(child, max_counters))
        _render_children(
            child, prefix + ("   " if last else "│  "), lines, max_counters
        )


# -- Prometheus text format ---------------------------------------------------


def _sanitize(name: str) -> str:
    return _METRIC_NAME.sub("_", name)


def _escape_label(value: str) -> str:
    """Escape a label *value* per the exposition format.

    Label values may contain any character; backslash, double quote and
    newline must be escaped (sanitizing them away, as this exporter
    once did, silently aliased distinct sources).
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_bound(bound: float) -> str:
    """A bucket bound rendered with enough digits to round-trip."""
    text = f"{bound:.12g}"
    return text


def prometheus_text(registry, prefix: str = "repro") -> str:
    """Render a registry in the Prometheus exposition text format.

    Counters get a ``_total`` suffix and a ``source`` label per
    registered bag; gauges are sampled once, unlabeled; histograms emit
    the standard cumulative ``_bucket`` series plus ``_sum`` and
    ``_count``.  All samples of one metric are contiguous with their
    ``# TYPE`` line first, as the exposition format requires — the
    old per-source iteration interleaved groups and real scrapers
    rejected the payload.
    """
    lines: list[str] = []
    by_source = registry.snapshot_by_source()
    grouped: dict[str, list[tuple[str, float]]] = {}
    for source, counters in by_source.items():
        for counter, value in counters.items():
            grouped.setdefault(_sanitize(counter), []).append((source, value))
    for metric in sorted(grouped):
        full = f"{prefix}_{metric}_total"
        lines.append(f"# TYPE {full} counter")
        for source, value in sorted(grouped[metric]):
            lines.append(
                f'{full}{{source="{_escape_label(source)}"}} {value:g}'
            )
    for name, snapshot in registry.histogram_snapshots().items():
        full = f"{prefix}_{_sanitize(name)}"
        lines.append(f"# TYPE {full} histogram")
        cumulative = 0.0
        bounds = snapshot["bounds"]
        counts = snapshot["counts"]
        for bound, count in zip(bounds, counts):
            cumulative += count
            lines.append(
                f'{full}_bucket{{le="{_format_bound(bound)}"}} {cumulative:g}'
            )
        lines.append(f'{full}_bucket{{le="+Inf"}} {snapshot["count"]:g}')
        lines.append(f"{full}_sum {snapshot['sum']:g}")
        lines.append(f"{full}_count {snapshot['count']:g}")
        # per-bucket trace exemplars ride as comment lines (the classic
        # exposition format has no exemplar syntax; OpenMetrics-style
        # inline exemplars would fail the classic grammar), so a
        # scraper that does not read them skips them as free comments
        exemplars = snapshot.get("exemplars")
        if exemplars:
            edges = [_format_bound(b) for b in bounds] + ["+Inf"]
            for le, exemplar in zip(edges, exemplars):
                if exemplar is None:
                    continue
                trace_id, value = exemplar
                lines.append(
                    f'# EXEMPLAR {full}_bucket{{le="{le}"}} '
                    f"trace_id={trace_id} value={value:g}"
                )
    for gauge, value in registry.gauge_values().items():
        metric = f"{prefix}_{_sanitize(gauge)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value:g}")
    return "\n".join(lines) + "\n"
