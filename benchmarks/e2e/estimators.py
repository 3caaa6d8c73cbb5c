"""The arithmetic between raw samples and reported metrics.

Pure functions over plain lists, so the tests can feed them hand-built
inputs.
"""

from __future__ import annotations

import statistics


def quantile(values: list[float], q: float) -> float:
    """The ``q``-quantile with linear interpolation between ranks."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def slot_values(passes: list[list[float]]) -> list[float]:
    """One latency per slot: the fastest of its timed passes.

    What a shared host adds to a latency is one-sided (a neighbour's
    cache traffic, a descheduled vCPU), and each latency has already
    been scaled by the host's speed around its own op (``calibration``),
    so the fastest pass is the one the host disturbed least.  A slot's
    cache or route outcome repeats in every pass (the runner asserts
    it), so the minimum compares like with like.  ``NOISE.md`` has the
    comparison with the lower quartile and the median.
    """
    if not passes:
        raise ValueError("no timed passes")
    return [min(column) for column in zip(*passes)]


#: half the width of the band of ranks a percentile is averaged over
BAND = 0.05


def band_mean(values: list[float], q: float) -> float:
    """The mean of the values ranked within :data:`BAND` of the
    ``q``-quantile's rank: a percentile that rests on a tenth of the
    slots instead of on two of them.  An op list is a fixed multiset of
    cost classes, so the band holds the same classes for every seed."""
    if not values:
        raise ValueError("band of no values")
    ordered = sorted(values)
    last = len(ordered) - 1
    low = round(max(q - BAND, 0.0) * last)
    high = round(min(q + BAND, 1.0) * last)
    band = ordered[low: high + 1]
    return sum(band) / len(band)


def self_times(spans: list[list]) -> dict[int, int]:
    """Self time in ns of every span, keyed by ``id(span)``.

    A span is ``[name, start_ns, end_ns, parent]``.  Each span is first
    clipped to its parent's (clipped) interval — a handler thread may
    still be closing its socket after the caller has its answer, and
    that tail belongs to no op.  A span's self time is then its duration
    minus the part its children cover; children that overlap each other
    (work handed to another thread) are counted once.  Over one tree the
    self times therefore sum to the root's duration.
    """
    clipped: dict[int, tuple[int, int]] = {}
    children: dict[int, list[tuple[int, int]]] = {}
    for span in sorted(spans, key=lambda s: (s[1], -s[2])):
        start, end = span[1], span[2]
        parent = span[3]
        if parent is not None and id(parent) in clipped:
            low, high = clipped[id(parent)]
            start = min(max(start, low), high)
            end = max(min(end, high), start)
            children.setdefault(id(parent), []).append((start, end))
        clipped[id(span)] = (start, end)
    result = {}
    for span in spans:
        start, end = clipped[id(span)]
        covered = 0
        reach = start
        for low, high in sorted(children.get(id(span), ())):
            if high <= reach:
                continue
            covered += high - max(low, reach)
            reach = high
        result[id(span)] = end - start - covered
    return result


def layer_self_ms(spans: list[list], root_name: str | None = None) -> dict[str, float]:
    """Total self time per layer, in ms.  A span's layer is the part of
    its name before the colon.  With ``root_name``, only spans whose
    outermost ancestor carries that name count (the driver's per-op
    span: work a background thread did between ops is left out)."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        if root_name is not None:
            root = span
            while root[3] is not None:
                root = root[3]
            if root[0] != root_name:
                continue
        layer = span[0].split(":", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own[id(span)] / 1e6
    return totals


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median — the steadiness
    figure the benchmark contract is judged by."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
