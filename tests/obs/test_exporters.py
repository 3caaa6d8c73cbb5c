"""Tests for the JSON, text-tree, and Prometheus exporters."""

from repro.obs import (
    MetricsRegistry,
    Tracer,
    prometheus_text,
    render_span_tree,
    span_from_dict,
    span_to_dict,
    trace_to_json,
)
from tests.prom_text import trace_from_json
from repro.util.stats import Counters


def _live(registry, name):
    """A fresh bag registered under ``name``."""
    bag = Counters()
    registry.register(name, bag)
    return bag


def sample_tree():
    registry = MetricsRegistry()
    bag = _live(registry, "bag")
    tracer = Tracer(registry=registry)
    with tracer.span("query", backend="array") as root:
        bag.add("pages_read", 4)
        with tracer.span("scan_chunks", chunks=2):
            bag.add("pages_read", 3)
            bag.add("sim_io_s", 0.25)
        with tracer.span("extract_rows"):
            pass
    return root


class TestJsonRoundTrip:
    def test_span_dict_round_trip(self):
        root = sample_tree()
        rebuilt = span_from_dict(span_to_dict(root))
        assert span_to_dict(rebuilt) == span_to_dict(root)

    def test_trace_json_round_trip(self):
        root = sample_tree()
        spans = trace_from_json(trace_to_json([root]))
        assert len(spans) == 1
        again = spans[0]
        assert again.name == "query"
        assert again.attrs == {"backend": "array"}
        assert again.io == root.io
        assert [c.name for c in again.children] == [
            "scan_chunks", "extract_rows",
        ]
        # the telescoping invariant survives serialization
        assert again.leaf_io_totals() == again.io

    def test_single_span_accepted(self):
        root = sample_tree()
        assert trace_to_json(root) == trace_to_json([root])


class TestTextTree:
    def test_renders_connectors_and_counters(self):
        text = render_span_tree(sample_tree())
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert "backend=array" in lines[0]
        assert any(line.startswith("├─ scan_chunks") for line in lines)
        assert any(line.startswith("└─ extract_rows") for line in lines)
        assert "pages_read=7" in lines[0]  # inclusive of the child

    def test_max_counters_truncates(self):
        root = sample_tree()
        root.io = {f"c{i}": float(i + 1) for i in range(12)}
        text = render_span_tree(root, max_counters=3)
        assert "..." in text.splitlines()[0]


class TestPrometheus:
    def test_counters_and_gauges_rendered(self):
        registry = MetricsRegistry()
        _live(registry, "disk").add("pages_read", 4)
        _live(registry, "pool").add("pool_hits", 2)
        registry.register_gauge("pool_hit_rate", lambda: 0.5)
        text = prometheus_text(registry)
        assert "# TYPE repro_pages_read_total counter" in text
        assert 'repro_pages_read_total{source="disk"} 4' in text
        assert 'repro_pool_hits_total{source="pool"} 2' in text
        assert "# TYPE repro_pool_hit_rate gauge" in text
        assert "repro_pool_hit_rate 0.5" in text

    def test_source_names_escaped_not_sanitized(self):
        # label *values* carry the source name verbatim (the exposition
        # format allows any UTF-8 there); only metric names get sanitized
        registry = MetricsRegistry()
        _live(registry, "fact:ds1.fact").add("gets", 1)
        text = prometheus_text(registry)
        assert 'source="fact:ds1.fact"' in text

    def test_label_values_escape_specials(self):
        registry = MetricsRegistry()
        _live(registry, 'we"ird\\nam\ne').add("gets", 1)
        text = prometheus_text(registry)
        assert 'source="we\\"ird\\\\nam\\ne"' in text


class TestEscapingRoundTrip:
    """Exporter escaping must invert exactly through the parser.

    Escaping alone is not enough — a scrape consumer sees the *parsed*
    label value, so each special character has to survive
    ``prometheus_text`` → ``parse_prometheus_text`` unchanged.
    """

    def _round_trip(self, source_name: str) -> str:
        from tests.prom_text import parse_prometheus_text

        registry = MetricsRegistry()
        _live(registry, source_name).add("gets", 1)
        samples, _ = parse_prometheus_text(prometheus_text(registry))
        labelled = [s for s in samples if "source" in s.labels]
        assert len(labelled) == 1
        return labelled[0].labels["source"]

    def test_newline_survives(self):
        assert self._round_trip("line\none") == "line\none"

    def test_backslash_survives(self):
        assert self._round_trip("back\\slash") == "back\\slash"

    def test_double_quote_survives(self):
        assert self._round_trip('quo"ted') == 'quo"ted'

    def test_all_specials_together_survive(self):
        gnarly = 'a\\n"b"\n\\\\c\\"'
        assert self._round_trip(gnarly) == gnarly

    def test_literal_backslash_n_is_not_a_newline(self):
        # the sequence backslash-then-n in the *raw* value must not
        # collapse into a newline after the round trip
        assert self._round_trip("not\\newline") == "not\\newline"
        assert self._round_trip("not\\newline") != "not\newline"

    def test_lint_accepts_escaped_output(self):
        from tests.prom_text import lint_prometheus_text

        registry = MetricsRegistry()
        _live(registry, 'we"ird\\nam\ne').add("gets", 1)
        lint_prometheus_text(prometheus_text(registry))
