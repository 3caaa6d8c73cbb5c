"""The scrape side of the exporters: Prometheus text parsing and
linting, and the JSON trace reader.

Only the tests read exports back.  :func:`lint_prometheus_text` holds
every ``/metrics`` export to the exposition grammar a real scraper
enforces (contiguous metric groups, ``# TYPE`` first, escaped label
values, complete histogram series); :func:`trace_from_json` rebuilds
the span trees :func:`repro.obs.exporters.trace_to_json` wrote.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from repro.obs.exporters import span_from_dict
from repro.obs.tracer import Span


def trace_from_json(text: str) -> list[Span]:
    """Parse :func:`~repro.obs.exporters.trace_to_json` output back into
    span trees."""
    return [span_from_dict(payload) for payload in json.loads(text)]


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
