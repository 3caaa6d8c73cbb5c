"""Trace and metrics exporters: JSON, text tree, Prometheus format.

The JSON form is the machine-readable artifact the bench harness drops
next to ``benchmarks/results/``; the text tree is what ``python -m
repro trace`` prints; the Prometheus text format is what the live
``/metrics`` endpoint serves, so the counters, gauges and latency
histograms map 1:1 onto a real monitoring stack.  The matching
:func:`parse_prometheus_text` / :func:`lint_prometheus_text` pair is
the scrape side: the test suite parses and lints every export against
the exposition grammar
(contiguous metric groups, ``# TYPE`` first, escaped label values,
complete histogram series).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

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


def trace_from_json(text: str) -> list[Span]:
    """Parse :func:`trace_to_json` output back into span trees."""
    return [span_from_dict(payload) for payload in json.loads(text)]


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
        # inline exemplars would fail parse_prometheus_text), so a
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


# -- Prometheus text parsing / linting ----------------------------------------

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")
_SUFFIXES = ("_bucket", "_sum", "_count", "_total")


@dataclass
class PromSample:
    """One parsed exposition sample line."""

    name: str
    labels: dict[str, str]
    value: float


def _parse_labels(body: str, line_no: int) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(body):
        match = re.match(r'([a-zA-Z_][a-zA-Z0-9_]*)="', body[i:])
        if match is None:
            raise ValueError(f"line {line_no}: malformed label set {body!r}")
        name = match.group(1)
        i += match.end()
        value_chars: list[str] = []
        while True:
            if i >= len(body):
                raise ValueError(
                    f"line {line_no}: unterminated label value in {body!r}"
                )
            ch = body[i]
            if ch == "\\":
                if i + 1 >= len(body) or body[i + 1] not in ('\\', '"', "n"):
                    raise ValueError(
                        f"line {line_no}: invalid escape in label value"
                    )
                value_chars.append(
                    "\n" if body[i + 1] == "n" else body[i + 1]
                )
                i += 2
            elif ch == '"':
                i += 1
                break
            else:
                value_chars.append(ch)
                i += 1
        labels[name] = "".join(value_chars)
        if i < len(body):
            if body[i] != ",":
                raise ValueError(
                    f"line {line_no}: expected ',' between labels in {body!r}"
                )
            i += 1
    return labels


def parse_prometheus_text(
    text: str,
) -> tuple[list[PromSample], dict[str, str]]:
    """Parse exposition text into samples plus a metric→type map.

    Raises :class:`ValueError` on any line that is neither a valid
    comment nor a valid sample.  (:func:`lint_prometheus_text` is built
    on it.)
    """
    samples: list[PromSample] = []
    types: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    raise ValueError(f"line {line_no}: malformed TYPE comment")
                _, _, metric, kind = parts
                if not _NAME_RE.match(metric):
                    raise ValueError(
                        f"line {line_no}: invalid metric name {metric!r}"
                    )
                if kind not in _TYPES:
                    raise ValueError(
                        f"line {line_no}: unknown metric type {kind!r}"
                    )
                if metric in types:
                    raise ValueError(
                        f"line {line_no}: duplicate TYPE for {metric!r}"
                    )
                types[metric] = kind
            continue  # HELP and free comments are unconstrained
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {line_no}: malformed sample {line!r}")
        labels = (
            _parse_labels(match.group("labels"), line_no)
            if match.group("labels")
            else {}
        )
        raw = match.group("value")
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"line {line_no}: non-numeric sample value {raw!r}"
            ) from None
        samples.append(PromSample(match.group("name"), labels, value))
    return samples, types


def _base_metric(sample_name: str, types: dict[str, str]) -> str:
    """Map a sample name back to its declared metric family."""
    if sample_name in types:
        return sample_name
    for suffix in _SUFFIXES:
        if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in types:
            base = sample_name[: -len(suffix)]
            kind = types[base]
            if suffix == "_total" and kind == "counter":
                return base
            if suffix in ("_bucket", "_sum", "_count") and kind in (
                "histogram",
                "summary",
            ):
                return base
    return sample_name


def lint_prometheus_text(text: str) -> list[PromSample]:
    """Validate exposition-format structure; returns the parsed samples.

    Checks the grammar rules a real scraper enforces:

    - every sample belongs to a declared ``# TYPE`` family, and the
      declaration precedes its first sample;
    - all samples of one family are contiguous (no interleaving);
    - histogram families carry ``_sum``, ``_count`` and a ``+Inf``
      bucket, with non-decreasing cumulative bucket values;
    - label names are valid and label values round-trip the escaping.

    Raises :class:`ValueError` with the offending line on violation.
    """
    samples, types = parse_prometheus_text(text)
    declared_order = list(types)
    seen_order: list[str] = []
    for sample in samples:
        base = _base_metric(sample.name, types)
        if base not in types:
            raise ValueError(
                f"sample {sample.name!r} has no preceding # TYPE declaration"
            )
        if not seen_order or seen_order[-1] != base:
            if base in seen_order:
                raise ValueError(
                    f"samples of {base!r} are not contiguous: the "
                    "exposition format requires one group per metric"
                )
            seen_order.append(base)
        for label in sample.labels:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
    # TYPE must precede the first sample of its family: since parse
    # collects types as it goes, verify group order is consistent with
    # declaration order for families that do have samples
    sampled = [m for m in declared_order if m in seen_order]
    if sampled != seen_order:
        raise ValueError("a metric family was sampled before its # TYPE line")
    for metric, kind in types.items():
        if kind != "histogram":
            continue
        series = [s for s in samples if _base_metric(s.name, types) == metric]
        if not series:
            continue
        buckets = [s for s in series if s.name == f"{metric}_bucket"]
        sums = [s for s in series if s.name == f"{metric}_sum"]
        counts = [s for s in series if s.name == f"{metric}_count"]
        if not buckets or len(sums) != 1 or len(counts) != 1:
            raise ValueError(
                f"histogram {metric!r} must expose _bucket, _sum and _count"
            )
        if buckets[-1].labels.get("le") != "+Inf":
            raise ValueError(
                f"histogram {metric!r} is missing the +Inf bucket (or it "
                "is not last)"
            )
        values = [b.value for b in buckets]
        if any(b > a for b, a in zip(values, values[1:])):
            raise ValueError(
                f"histogram {metric!r} cumulative bucket counts decrease"
            )
        if buckets[-1].value != counts[0].value:
            raise ValueError(
                f"histogram {metric!r}: +Inf bucket != _count"
            )
    return samples
