"""Watch-frame rendering over /timeseries payloads (no live endpoint)."""

from types import SimpleNamespace

from repro.api.model import LogicalModel
from repro.api.server import ApiEndpoint, ApiServer
from repro.obs import TimeSeriesStore
from repro.obs.registry import MetricsRegistry
from repro.obs.watch import (
    _headline,
    _series_values,
    render_watch_frame,
    watch_frame,
)
from repro.util.stats import Counters

from tests.api.conftest import fresh_engine


def _counter_payload():
    return {
        "metric": "serve.admitted",
        "kind": "counter",
        "points": [{"t": 1.0, "delta": 5.0}, {"t": 2.0, "delta": 7.0}],
        "rate_per_s": 6.0,
    }


def _gauge_payload():
    return {
        "metric": "serve.in_flight",
        "kind": "gauge",
        "points": [{"t": 1.0, "value": 2.0}, {"t": 2.0, "value": 3.0}],
    }


def _histogram_payload(quantile_s=0.025, observations=40):
    return {
        "metric": "serve.query_latency_seconds",
        "kind": "histogram",
        "quantile": 0.95,
        "points": [{"t": 2.0, "value": 0.02}],
        "window_quantile_s": quantile_s,
        "window_observations": observations,
    }


class TestSeriesAndHeadlines:
    def test_counters_plot_deltas(self):
        assert _series_values(_counter_payload()) == [5.0, 7.0]

    def test_gauges_plot_values(self):
        assert _series_values(_gauge_payload()) == [2.0, 3.0]

    def test_counter_headline_is_the_rate(self):
        assert "/s" in _headline(_counter_payload())

    def test_gauge_headline_is_the_latest_sample(self):
        assert "now" in _headline(_gauge_payload())

    def test_histogram_headline_has_quantile_and_count(self):
        line = _headline(_histogram_payload())
        assert "p95" in line
        assert "25.000ms" in line
        assert "(40 obs)" in line

    def test_idle_histogram_headline(self):
        line = _headline(_histogram_payload(quantile_s=None, observations=0))
        assert line == "(0 obs in window)"


class TestRenderFrame:
    def test_rows_sparkline_and_absent_metrics(self):
        frame = render_watch_frame(
            [
                ("admitted", _counter_payload()),
                ("engine p95", None),
            ],
            alerts=None,
        )
        lines = frame.splitlines()
        assert lines[0].startswith("admitted")
        assert "▁" in lines[0] or "█" in lines[0]
        assert lines[1] == "engine p95     (not exported)"

    def test_firing_alerts_line(self):
        frame = render_watch_frame(
            [], alerts={"firing": [{"rule": "serve-latency-p99"}], "events": []}
        )
        assert "ALERTS FIRING: serve-latency-p99" in frame

    def test_quiet_alerts_line_counts_transitions(self):
        frame = render_watch_frame(
            [], alerts={"firing": [], "events": [{}, {}]}
        )
        assert "alerts: none firing (2 transitions logged)" in frame


class TestLiveFrame:
    def test_watch_frame_against_a_real_endpoint(self):
        registry = MetricsRegistry()
        registry.register("serve", Counters())
        registry.counters("serve").add("serve.admitted", 3)
        registry.observe("serve.query_latency_seconds", 0.01)
        tsdb = TimeSeriesStore(registry)
        tsdb.sample()
        registry.counters("serve").add("serve.admitted", 2)
        registry.observe("serve.query_latency_seconds", 0.02)
        tsdb.sample()
        endpoint = ApiEndpoint(
            fresh_engine(), SimpleNamespace(timeseries=tsdb),
            LogicalModel(cubes=()),
        )
        with ApiServer(endpoint) as server:
            frame = watch_frame(server.url)
        endpoint.close()
        # exported metrics render rows; never-exported ones say so; the
        # stand-in service has no alert manager, so no alerts line
        assert "query p95" in frame
        assert "admitted" in frame
        assert "(not exported)" in frame
        assert "ALERTS" not in frame
