"""TimeSeriesStore: snapshots, exact windowed deltas, windowed quantiles."""

import time

import pytest

from repro.errors import MetricsError
from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import TimePoint, TimeSeriesStore
from repro.util.stats import Counters


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    registry.register("svc", Counters())
    return registry


def _bump(registry, name, amount=1.0):
    registry.counters("svc").add(name, amount)


class TestSampling:
    def test_sample_snapshots_counters_gauges_histograms(self, registry):
        registry.register_gauge("depth", lambda: 4.0)
        registry.observe("lat_seconds", 0.01)
        _bump(registry, "requests", 3)
        store = TimeSeriesStore(registry)
        point = store.sample(now=100.0)
        assert point.t == 100.0
        assert point.sources["svc"]["requests"] == 3.0
        assert point.gauges["depth"] == 4.0
        bounds, counts, total_sum, count = point.histograms["lat_seconds"]
        assert count == 1
        assert sum(counts) == 1
        assert len(counts) == len(bounds) + 1  # overflow bucket rides along

    def test_capacity_bounds_the_ring_but_not_samples_taken(self, registry):
        store = TimeSeriesStore(registry, capacity=3)
        for i in range(10):
            store.sample(now=float(i))
        assert len(store) == 3
        assert store.samples_taken == 10
        assert [p.t for p in store.points()] == [7.0, 8.0, 9.0]

    def test_capacity_below_two_rejected(self, registry):
        with pytest.raises(MetricsError):
            TimeSeriesStore(registry, capacity=1)

    def test_points_window_selects_trailing_seconds(self, registry):
        store = TimeSeriesStore(registry)
        for t in (0.0, 10.0, 20.0, 30.0):
            store.sample(now=t)
        assert [p.t for p in store.points(10.0)] == [20.0, 30.0]
        assert [p.t for p in store.points(None)] == [0.0, 10.0, 20.0, 30.0]

    def test_metric_names_reports_kinds(self, registry):
        registry.register_gauge("depth", lambda: 1.0)
        registry.observe("lat_seconds", 0.01)
        _bump(registry, "requests")
        store = TimeSeriesStore(registry)
        assert store.metric_names() == {}  # nothing sampled yet
        store.sample(now=0.0)
        names = store.metric_names()
        assert names["requests"] == "counter"
        assert names["depth"] == "gauge"
        assert names["lat_seconds"] == "histogram"


class TestCounterMath:
    def test_counter_delta_and_rate(self, registry):
        store = TimeSeriesStore(registry)
        store.sample(now=0.0)
        _bump(registry, "requests", 10)
        store.sample(now=5.0)
        _bump(registry, "requests", 20)
        store.sample(now=10.0)
        assert store.counter_delta("requests", 100.0) == 30.0
        assert store.counter_rate("requests", 100.0) == pytest.approx(3.0)
        series = store.counter_series("requests")
        assert series == [(5.0, 10.0), (10.0, 20.0)]

    def test_replaced_source_clamps_the_window_at_zero(self, registry):
        store = TimeSeriesStore(registry)
        _bump(registry, "requests", 100)
        store.sample(now=0.0)
        # a restarted service swaps in a fresh bag: its history is gone
        registry.register("svc", Counters(), replace=True)
        _bump(registry, "requests", 7)
        store.sample(now=1.0)
        assert store.counter_delta("requests", 100.0) == 0.0
        assert store.counter_series("requests") == [(1.0, 0.0)]

    def test_scoped_bags_keep_counting_after_they_end(self, registry):
        store = TimeSeriesStore(registry)
        store.sample(now=0.0)
        for probes in (3, 4):
            bag = Counters()
            with registry.scoped("query", bag):
                bag.add("probes", probes)
        store.sample(now=1.0)
        assert store.counter_delta("probes", 100.0) == 7.0

    def test_idle_sources_share_one_snapshot_between_points(self, registry):
        _bump(registry, "requests")
        store = TimeSeriesStore(registry)
        a = store.sample(now=0.0)
        b = store.sample(now=1.0)
        assert a.sources["svc"] is b.sources["svc"]


class TestWindowsOverRealQueries:
    def test_window_equals_the_sum_of_the_queries_in_it(self):
        # each cold query used to zero the registry, so a window kept
        # only what followed the last reset; now it is the exact sum
        from repro.bench import bench_settings, build_cube_engine, query1_for
        from repro.data import SyntheticCubeConfig

        config = SyntheticCubeConfig(
            name="tiny",
            dim_sizes=(6, 6, 6, 10),
            n_valid=150,
            chunk_shape=(3, 3, 3, 5),
            fanout1=3,
        )
        engine = build_cube_engine(config, bench_settings("small"))
        store = TimeSeriesStore(engine.db.metrics)
        engine.query(query1_for(config), backend="array")
        store.sample(now=0.0)
        results = [
            engine.query(query1_for(config), backend=backend)
            for backend in ("array", "starjoin", "array", "bitmap", "array")
        ]
        store.sample(now=1.0)
        for name in ("pages_read", "seeks", "pool_misses", "cells_scanned"):
            assert store.counter_delta(name, 10.0) == sum(
                result.stats.get(name, 0.0) for result in results
            ), name
        assert sum(r.stats["pages_read"] for r in results) > results[-1].stats[
            "pages_read"
        ]


class TestHistogramWindows:
    def test_window_quantile_covers_only_the_window(self, registry):
        # 100 fast observations before the window, 10 slow ones inside:
        # the whole-life p50 is fast, the windowed p50 must be slow
        for _ in range(100):
            registry.observe("lat_seconds", 0.001)
        store = TimeSeriesStore(registry)
        store.sample(now=0.0)
        for _ in range(10):
            registry.observe("lat_seconds", 2.0)
        store.sample(now=5.0)
        windowed = store.window_quantile("lat_seconds", 0.5, 10.0)
        assert windowed is not None and windowed > 1.0
        assert store.window_count("lat_seconds", 10.0) == 10

    def test_window_quantile_none_without_observations(self, registry):
        registry.observe("lat_seconds", 0.001)
        store = TimeSeriesStore(registry)
        store.sample(now=0.0)
        store.sample(now=5.0)  # no new observations in between
        assert store.window_quantile("lat_seconds", 0.99, 10.0) is None
        assert store.window_count("lat_seconds", 10.0) == 0

    def test_quantile_series_skips_idle_intervals(self, registry):
        store = TimeSeriesStore(registry)
        registry.observe("lat_seconds", 0.01)
        store.sample(now=0.0)
        store.sample(now=1.0)  # idle interval
        registry.observe("lat_seconds", 0.02)
        store.sample(now=2.0)
        series = store.quantile_series("lat_seconds", 0.5)
        assert [t for t, _ in series] == [2.0]


class TestSeriesPayload:
    def test_counter_payload(self, registry):
        store = TimeSeriesStore(registry)
        store.sample(now=0.0)
        _bump(registry, "requests", 5)
        store.sample(now=1.0)
        payload = store.series_payload("requests", window_s=60.0)
        assert payload["kind"] == "counter"
        assert payload["points"] == [{"t": 1.0, "delta": 5.0}]
        assert payload["rate_per_s"] == pytest.approx(5.0)

    def test_histogram_payload(self, registry):
        store = TimeSeriesStore(registry)
        registry.observe("lat_seconds", 0.01)
        store.sample(now=0.0)
        registry.observe("lat_seconds", 0.04)
        store.sample(now=1.0)
        payload = store.series_payload("lat_seconds", window_s=60.0, q=0.5)
        assert payload["kind"] == "histogram"
        assert payload["window_observations"] == 1
        assert payload["window_quantile_s"] is not None

    def test_unknown_metric_returns_none(self, registry):
        store = TimeSeriesStore(registry)
        store.sample(now=0.0)
        assert store.series_payload("no-such-metric") is None


class TestBackgroundSampler:
    def test_sampler_thread_samples_and_runs_hooks(self, registry):
        store = TimeSeriesStore(registry)
        seen = []
        store.start(0.01, hooks=(seen.append,))
        try:
            deadline = time.time() + 2.0
            while store.samples_taken < 3 and time.time() < deadline:
                time.sleep(0.01)
        finally:
            store.stop()
        assert store.samples_taken >= 3
        assert len(seen) >= 3
        assert all(isinstance(point, TimePoint) for point in seen)

    def test_hook_exceptions_do_not_kill_the_sampler(self, registry):
        store = TimeSeriesStore(registry)

        def broken(point):
            raise RuntimeError("bad rule")

        store.start(0.01, hooks=(broken,))
        try:
            deadline = time.time() + 2.0
            while store.samples_taken < 3 and time.time() < deadline:
                time.sleep(0.01)
        finally:
            store.stop()
        assert store.samples_taken >= 3

    def test_nonpositive_interval_rejected(self, registry):
        with pytest.raises(MetricsError):
            TimeSeriesStore(registry).start(0.0)
