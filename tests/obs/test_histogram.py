"""Histogram unit tests: buckets, quantiles, merge, JSON, concurrency."""

import json
import random
import threading

import pytest

from repro.errors import MetricsError
from repro.obs import DEFAULT_BOUNDS, Histogram, quantile_from_buckets
from repro.obs.registry import MetricsRegistry
from repro.util.stats import Counters


class TestBuckets:
    def test_default_bounds_are_log_scale(self):
        assert len(DEFAULT_BOUNDS) == 28
        assert DEFAULT_BOUNDS[0] == pytest.approx(1e-6)
        for lower, upper in zip(DEFAULT_BOUNDS, DEFAULT_BOUNDS[1:]):
            assert upper == pytest.approx(2 * lower)
        # covers cache hits (µs) through pathological cold runs (>100 s)
        assert DEFAULT_BOUNDS[-1] > 100.0

    def test_observe_lands_in_correct_bucket(self):
        h = Histogram(bounds=(0.001, 0.01, 0.1))
        h.observe(0.0005)  # <= first bound
        h.observe(0.005)
        h.observe(0.05)
        h.observe(5.0)  # overflow
        assert h.bucket_counts() == [1, 1, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(0.0005 + 0.005 + 0.05 + 5.0)

    def test_boundary_value_goes_to_lower_bucket(self):
        # le-semantics: an observation equal to a bound belongs to it
        h = Histogram(bounds=(0.001, 0.01))
        h.observe(0.001)
        assert h.bucket_counts() == [1, 0, 0]

    def test_negative_and_zero_clamp_to_first_bucket(self):
        h = Histogram(bounds=(0.001, 0.01))
        h.observe(0.0)
        h.observe(-1.0)
        assert h.bucket_counts()[0] == 2

    def test_bounds_must_increase(self):
        with pytest.raises(MetricsError):
            Histogram(bounds=(0.01, 0.01))
        with pytest.raises(MetricsError):
            Histogram(bounds=(0.01, 0.001))
        with pytest.raises(MetricsError):
            Histogram(bounds=())


class TestQuantiles:
    def test_empty_histogram_reports_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_single_bucket_interpolates_from_zero(self):
        h = Histogram(bounds=(1.0, 2.0))
        for _ in range(10):
            h.observe(0.5)
        # all mass in [0, 1]; median interpolates to the middle
        assert h.quantile(0.5) == pytest.approx(0.5)

    def test_quantile_matches_uniform_distribution(self):
        h = Histogram()
        values = [i / 1000 for i in range(1, 1001)]  # 1 ms .. 1 s uniform
        for v in values:
            h.observe(v)
        for q in (0.5, 0.95, 0.99):
            exact = values[int(q * len(values)) - 1]
            estimate = h.quantile(q)
            # log-scale buckets are 2x wide: estimate within one bucket
            assert exact / 2 <= estimate <= exact * 2

    def test_overflow_reports_largest_finite_bound(self):
        h = Histogram(bounds=(0.001, 0.01))
        h.observe(100.0)
        assert h.quantile(0.99) == pytest.approx(0.01)

    def test_quantile_range_checked(self):
        with pytest.raises(MetricsError):
            Histogram().quantile(1.5)
        with pytest.raises(MetricsError):
            quantile_from_buckets((1.0,), [1, 0], -0.1)

    def test_percentiles_shape(self):
        h = Histogram()
        h.observe(0.01)
        p = h.percentiles()
        assert set(p) == {"p50", "p95", "p99"}
        assert p["p50"] <= p["p95"] <= p["p99"]


class TestMergeAndSerialization:
    def test_merge_adds_counts(self):
        a, b = Histogram(), Histogram()
        for v in (0.001, 0.002, 0.004):
            a.observe(v)
            b.observe(v * 10)
        a.merge(b)
        assert a.count == 6
        assert a.sum == pytest.approx(0.007 + 0.07)

    def test_merge_requires_identical_bounds(self):
        with pytest.raises(MetricsError):
            Histogram(bounds=(1.0,)).merge(Histogram(bounds=(2.0,)))

    def test_json_round_trip(self):
        h = Histogram()
        for v in (0.0001, 0.003, 0.5, 300.0):
            h.observe(v)
        payload = json.loads(json.dumps(h.to_dict()))
        clone = Histogram.from_dict(payload)
        assert clone.bounds == h.bounds
        assert clone.bucket_counts() == h.bucket_counts()
        assert clone.count == h.count
        assert clone.sum == pytest.approx(h.sum)
        assert clone.quantile(0.95) == pytest.approx(h.quantile(0.95))

    def test_from_dict_validates_bucket_count(self):
        with pytest.raises(MetricsError):
            Histogram.from_dict(
                {"bounds": [1.0, 2.0], "counts": [1], "sum": 0.0, "count": 1}
            )

    def test_reset_zeroes_everything(self):
        h = Histogram()
        h.observe(0.5)
        h.reset()
        assert h.count == 0
        assert h.sum == 0.0
        assert sum(h.bucket_counts()) == 0


class TestConcurrency:
    N_THREADS = 8
    PER_THREAD = 2_000

    def _workload(self, seed: int) -> list[float]:
        rng = random.Random(seed)
        # latency-shaped: lognormal body with a heavy tail
        return [
            rng.lognormvariate(-7.0, 1.5) if rng.random() > 0.02 else rng.uniform(0.5, 5.0)
            for _ in range(self.PER_THREAD)
        ]

    def test_concurrent_observations_match_serial_reference(self):
        """8 threads hammer one histogram; result equals the serial fold."""
        workloads = [self._workload(seed) for seed in range(self.N_THREADS)]
        concurrent = Histogram()
        barrier = threading.Barrier(self.N_THREADS)

        def hammer(values):
            barrier.wait()
            for v in values:
                concurrent.observe(v)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in workloads
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        reference = Histogram()
        for workload in workloads:
            for v in workload:
                reference.observe(v)

        # counts must match exactly — no lost updates under contention
        assert concurrent.bucket_counts() == reference.bucket_counts()
        assert concurrent.count == self.N_THREADS * self.PER_THREAD
        assert concurrent.sum == pytest.approx(reference.sum)
        for q in (0.5, 0.95, 0.99):
            assert concurrent.quantile(q) == pytest.approx(
                reference.quantile(q)
            )

    def test_concurrent_quantiles_within_bucket_resolution(self):
        """Histogram quantiles track the true sorted-sample quantiles."""
        workloads = [self._workload(seed + 100) for seed in range(self.N_THREADS)]
        h = Histogram()
        threads = [
            threading.Thread(
                target=lambda w=w: [h.observe(v) for v in w]
            )
            for w in workloads
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        flat = sorted(v for w in workloads for v in w)
        for q in (0.5, 0.95, 0.99):
            exact = flat[int(q * len(flat)) - 1]
            estimate = h.quantile(q)
            # power-of-two buckets: the estimate is within one bucket
            # (2x) of the true sample quantile
            assert exact / 2 <= estimate <= exact * 2

    def test_registry_scrape_during_concurrent_writes(self):
        """Writers hammer counters + a histogram while readers scrape."""
        from repro.obs.exporters import prometheus_text
        from tests.prom_text import lint_prometheus_text

        registry = MetricsRegistry()
        counters = Counters()
        registry.register("svc", counters)
        registry.register_histogram("svc.latency_seconds")
        stop = threading.Event()
        errors: list[BaseException] = []

        def write(seed: int):
            rng = random.Random(seed)
            try:
                for _ in range(self.PER_THREAD):
                    counters.add("requests")
                    registry.observe("svc.latency_seconds", rng.random() / 100)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def scrape():
            try:
                while not stop.is_set():
                    lint_prometheus_text(prometheus_text(registry))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        writers = [
            threading.Thread(target=write, args=(s,))
            for s in range(self.N_THREADS)
        ]
        scrapers = [threading.Thread(target=scrape) for _ in range(2)]
        for t in scrapers + writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in scrapers:
            t.join()

        assert not errors
        assert counters.get("requests") == self.N_THREADS * self.PER_THREAD
        histogram = registry.histogram("svc.latency_seconds")
        assert histogram.count == self.N_THREADS * self.PER_THREAD
        # the final scrape agrees with the registry state
        text = prometheus_text(registry)
        assert (
            f"repro_requests_total{{source=\"svc\"}} "
            f"{self.N_THREADS * self.PER_THREAD}" in text
        )
        assert (
            f"repro_svc_latency_seconds_count "
            f"{self.N_THREADS * self.PER_THREAD}" in text
        )
