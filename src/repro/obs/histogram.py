"""Fixed log-scale latency histograms.

The serving layer needs percentile-level latency (p50/p95/p99 of query
latency, queue wait, WAL fsync, cache lookups) that is cheap to record
on every observation, mergeable across threads, and exportable as a
Prometheus histogram (``_bucket``/``_sum``/``_count`` series).  A
:class:`Histogram` holds a fixed set of log-scale bucket upper bounds —
by default 28 power-of-two buckets from 1 µs to ≈134 s, which covers
everything from a result-cache hit to a pathological cold run at ≤2×
relative error — plus one overflow bucket.

Quantiles are estimated the way Prometheus's ``histogram_quantile``
does: find the bucket where the cumulative count crosses the rank and
interpolate linearly inside it.  Two histograms with the same bounds
merge by adding counts, so per-thread histograms can be combined into
one without locks on the hot path (each histogram is itself
thread-safe, so the in-tree consumers simply share one).
"""

from __future__ import annotations

import threading
from bisect import bisect_left

from repro.errors import MetricsError

#: power-of-two bucket upper bounds, 1 µs .. ~134 s (28 buckets)
DEFAULT_BOUNDS: tuple[float, ...] = tuple(1e-6 * 2**i for i in range(28))


def quantile_from_buckets(
    bounds: list[float] | tuple[float, ...],
    counts: list[float],
    q: float,
) -> float:
    """Estimate the ``q``-quantile from per-bucket counts.

    ``counts`` has one entry per bound plus a final overflow count.
    Observations in the overflow bucket report the largest finite
    bound (there is no upper edge to interpolate toward).  An empty
    histogram reports 0.0.
    """
    if not 0.0 <= q <= 1.0:
        raise MetricsError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total <= 0:
        return 0.0
    rank = q * total
    cumulative = 0.0
    for i, count in enumerate(counts):
        cumulative += count
        if cumulative >= rank and count > 0:
            if i >= len(bounds):  # overflow bucket: no finite upper edge
                return float(bounds[-1])
            lower = bounds[i - 1] if i > 0 else 0.0
            upper = bounds[i]
            # linear interpolation inside the bucket, Prometheus-style
            into = (rank - (cumulative - count)) / count
            return lower + (upper - lower) * into
    return float(bounds[-1])


class Histogram:
    """Thread-safe fixed-bucket histogram of (latency) observations.

    Each bucket additionally keeps one *exemplar* — the trace_id and
    value of the last observation recorded into it with a trace_id —
    so a percentile read maps back to a concrete trace in the
    :class:`~repro.obs.tracing.TraceStore` (the ``/metrics`` scrape
    carries them as ``# EXEMPLAR`` comments).
    """

    __slots__ = ("bounds", "_counts", "_sum", "_count", "_exemplars", "_lock")

    def __init__(self, bounds: tuple[float, ...] | None = None):
        bounds = tuple(bounds) if bounds is not None else DEFAULT_BOUNDS
        if not bounds:
            raise MetricsError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise MetricsError("histogram bounds must be strictly increasing")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self._sum = 0.0
        self._count = 0
        # per-bucket (trace_id, value) of the last traced observation
        self._exemplars: list[tuple[str, float] | None] = [None] * (
            len(bounds) + 1
        )
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def observe(self, value: float, trace_id: str | None = None) -> None:
        """Record one observation (negative values clamp to bucket 0)."""
        index = bisect_left(self.bounds, value) if value > 0 else 0
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if trace_id is not None:
                self._exemplars[index] = (str(trace_id), float(value))

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with identical bounds into this one."""
        if other.bounds != self.bounds:
            raise MetricsError(
                "cannot merge histograms with different bucket bounds"
            )
        with other._lock:
            counts = list(other._counts)
            exemplars = list(other._exemplars)
            total, count = other._sum, other._count
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
                if exemplars[i] is not None:
                    self._exemplars[i] = exemplars[i]
            self._sum += total
            self._count += count

    def reset(self) -> None:
        """Zero every bucket (histograms are normally cumulative)."""
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0
            self._exemplars = [None] * (len(self.bounds) + 1)

    # -- reading -------------------------------------------------------------

    @property
    def count(self) -> int:
        """Total number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of every observed value."""
        with self._lock:
            return self._sum

    def bucket_counts(self) -> list[int]:
        """Per-bucket counts (last entry is the overflow bucket)."""
        with self._lock:
            return list(self._counts)

    def exemplars(self) -> list[tuple[str, float] | None]:
        """Per-bucket ``(trace_id, value)`` exemplars (``None`` = none).

        Aligned with :meth:`bucket_counts`; the last entry is the
        overflow bucket's.
        """
        with self._lock:
            return list(self._exemplars)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (linear interpolation in-bucket)."""
        with self._lock:
            counts = list(self._counts)
        return quantile_from_buckets(self.bounds, counts, q)

    def percentiles(self) -> dict[str, float]:
        """p50/p95/p99 in one consistent read."""
        with self._lock:
            counts = list(self._counts)
        return {
            "p50": quantile_from_buckets(self.bounds, counts, 0.50),
            "p95": quantile_from_buckets(self.bounds, counts, 0.95),
            "p99": quantile_from_buckets(self.bounds, counts, 0.99),
        }

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot (consistent under concurrency)."""
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
                "exemplars": [
                    list(e) if e is not None else None
                    for e in self._exemplars
                ],
            }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output."""
        histogram = cls(tuple(payload["bounds"]))
        counts = list(payload["counts"])
        if len(counts) != len(histogram._counts):
            raise MetricsError(
                f"histogram payload has {len(counts)} buckets, bounds "
                f"imply {len(histogram._counts)}"
            )
        histogram._counts = [int(c) for c in counts]
        histogram._sum = float(payload["sum"])
        histogram._count = int(payload["count"])
        exemplars = payload.get("exemplars")
        if exemplars is not None and len(exemplars) == len(counts):
            histogram._exemplars = [
                (str(e[0]), float(e[1])) if e is not None else None
                for e in exemplars
            ]
        return histogram

    def __repr__(self) -> str:
        return (
            f"Histogram(count={self._count}, sum={self._sum:.6g}, "
            f"buckets={len(self.bounds)})"
        )
