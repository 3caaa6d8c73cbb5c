"""Sampling profiler: span/idle/other classification over real threads."""

import threading
import time

from repro.obs.profiler import SamplingProfiler
from repro.obs.tracer import Tracer, thread_tracing


class _Worker:
    """A thread that spins (busy) or parks (idle) until released."""

    def __init__(self, name, target):
        self.release = threading.Event()
        self.ready = threading.Event()
        self.thread = threading.Thread(
            target=target, name=name, daemon=True
        )

    def start(self):
        self.thread.start()
        assert self.ready.wait(timeout=5)
        return self

    def stop(self):
        self.release.set()
        self.thread.join(timeout=5)


def _busy_in_span(worker, span_name):
    def run():
        with thread_tracing(Tracer()) as tracer:
            with tracer.span(span_name):
                worker.ready.set()
                while not worker.release.is_set():
                    sum(range(100))
    return run


def _busy_no_span(worker):
    def run():
        worker.ready.set()
        while not worker.release.is_set():
            sum(range(100))
    return run


def _parked(worker):
    def run():
        worker.ready.set()
        worker.release.wait()
    return run


def _sample_many(profiler, n=20):
    for _ in range(n):
        profiler.sample_once()
        time.sleep(0.001)


class TestClassification:
    def test_span_thread_attributed_to_its_span(self):
        profiler = SamplingProfiler()
        worker = _Worker("busy-span", None)
        worker.thread = threading.Thread(
            target=_busy_in_span(worker, "phase_a"),
            name="busy-span",
            daemon=True,
        )
        try:
            worker.start()
            _sample_many(profiler)
        finally:
            worker.stop()
        assert profiler.stats()["span_samples"] > 0
        assert "phase_a" in profiler.collapsed()

    def test_parked_thread_counts_as_idle(self):
        profiler = SamplingProfiler()
        worker = _Worker("parked", None)
        worker.thread = threading.Thread(
            target=_parked(worker), name="parked", daemon=True
        )
        before = profiler.stats()["idle_samples"]
        try:
            worker.start()
            _sample_many(profiler)
        finally:
            worker.stop()
        assert profiler.stats()["idle_samples"] > before

    def test_busy_thread_outside_spans_is_other(self):
        profiler = SamplingProfiler()
        worker = _Worker("busy-bare", None)
        worker.thread = threading.Thread(
            target=_busy_no_span(worker), name="busy-bare", daemon=True
        )
        try:
            worker.start()
            _sample_many(profiler)
        finally:
            worker.stop()
        stats = profiler.stats()
        assert stats["other_samples"] > 0
        assert any(
            key.startswith("(other);") for key in profiler.collapsed()
        )

    def test_excluded_prefix_threads_are_invisible(self):
        profiler = SamplingProfiler(exclude_prefixes=("repro-obs", "hidden"))
        worker = _Worker("hidden-busy", None)
        worker.thread = threading.Thread(
            target=_busy_no_span(worker), name="hidden-busy", daemon=True
        )
        try:
            worker.start()
            _sample_many(profiler)
        finally:
            worker.stop()
        assert not any(
            "sum" in key or "run" in key
            for key in profiler.collapsed()
            if key.startswith("(other);test_profiler")
        )


class TestLifecycleAndOutput:
    def test_start_stop_and_ticks(self):
        profiler = SamplingProfiler(interval_s=0.001)
        profiler.start()
        assert profiler.running
        deadline = time.time() + 2.0
        while profiler.ticks < 5 and time.time() < deadline:
            time.sleep(0.005)
        profiler.stop()
        assert not profiler.running
        assert profiler.ticks >= 5

    def test_reset_drops_samples(self):
        profiler = SamplingProfiler()
        profiler.sample_once()
        profiler.reset()
        stats = profiler.stats()
        assert stats["ticks"] == 0
        assert stats["samples"] == 0
        assert profiler.collapsed() == {}

    def test_collapsed_sorted_hottest_first(self):
        profiler = SamplingProfiler()
        with profiler._lock:
            profiler._span_samples[("a", "b")] = 3
            profiler._span_samples[("c",)] = 7
            profiler._other_samples["m:f"] = 5
        collapsed = profiler.collapsed()
        assert list(collapsed.items()) == [
            ("c", 7), ("(other);m:f", 5), ("a;b", 3)
        ]

    def test_to_dict_shape(self):
        profiler = SamplingProfiler()
        profiler.sample_once()
        payload = profiler.to_dict()
        assert payload["ticks"] == 1
        assert payload["running"] is False
        assert payload["interval_s"] == profiler.interval_s
        assert isinstance(payload["collapsed"], dict)

    def test_render_flame(self):
        profiler = SamplingProfiler()
        assert "(no busy samples)" in profiler.render_flame()
        with profiler._lock:
            profiler._span_samples[("serve_query", "probe")] = 4
            profiler._ticks = 4
        flame = profiler.render_flame()
        assert "serve_query;probe" in flame
        assert "█" in flame
